type reg = int

type instr =
  | Halt
  | Nop
  | Ei
  | Di
  | Iret
  | Mov of reg * reg
  | Movi of reg * int
  | Lui of reg * int
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Div of reg * reg * reg
  | Rem of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Shl of reg * reg * reg
  | Shr of reg * reg * reg
  | Sar of reg * reg * reg
  | Slt of reg * reg * reg
  | Sltu of reg * reg * reg
  | Seq of reg * reg * reg
  | Addi of reg * reg * int
  | Andi of reg * reg * int
  | Ori of reg * reg * int
  | Xori of reg * reg * int
  | Shli of reg * reg * int
  | Shri of reg * reg * int
  | Sari of reg * reg * int
  | Load of reg * reg * int
  | Store of reg * reg * int
  | Jmp of int
  | Jal of reg * int
  | Jr of reg
  | Jalr of reg * reg
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | In of reg * int
  | Out of reg * int

exception Decode_error of int

(* Encoding: [op:8][rd:4][rs:4][imm:16]. Three-register forms put the
   third register in the low 4 bits of the imm field. Immediates are
   stored as unsigned 16-bit values; signedness is an interpretation
   applied by the CPU (and by [decode], which returns signed values for
   the sign-extended forms so that encode/decode round-trips). *)

let mask16 = 0xffff

let pack ~op ~rd ~rs ~imm =
  assert (rd >= 0 && rd < 16 && rs >= 0 && rs < 16);
  (op lsl 24) lor (rd lsl 20) lor (rs lsl 16) lor (imm land mask16)

let sext16 v = (v lxor 0x8000) - 0x8000

(* Opcode assignments. *)
let op_halt = 0x00
and op_nop = 0x01
and op_ei = 0x02
and op_di = 0x03
and op_iret = 0x04
and op_mov = 0x05
and op_movi = 0x06
and op_lui = 0x07
and op_add = 0x10
and op_sub = 0x11
and op_mul = 0x12
and op_div = 0x13
and op_rem = 0x14
and op_and = 0x15
and op_or = 0x16
and op_xor = 0x17
and op_shl = 0x18
and op_shr = 0x19
and op_sar = 0x1a
and op_slt = 0x1b
and op_sltu = 0x1c
and op_seq = 0x1d
and op_addi = 0x20
and op_andi = 0x21
and op_ori = 0x22
and op_xori = 0x23
and op_shli = 0x24
and op_shri = 0x25
and op_sari = 0x26
and op_load = 0x30
and op_store = 0x31
and op_jmp = 0x40
and op_jal = 0x41
and op_jr = 0x42
and op_jalr = 0x43
and op_beq = 0x44
and op_bne = 0x45
and op_blt = 0x46
and op_bge = 0x47
and op_bltu = 0x48
and op_bgeu = 0x49
and op_in = 0x50
and op_out = 0x51

let encode = function
  | Halt -> pack ~op:op_halt ~rd:0 ~rs:0 ~imm:0
  | Nop -> pack ~op:op_nop ~rd:0 ~rs:0 ~imm:0
  | Ei -> pack ~op:op_ei ~rd:0 ~rs:0 ~imm:0
  | Di -> pack ~op:op_di ~rd:0 ~rs:0 ~imm:0
  | Iret -> pack ~op:op_iret ~rd:0 ~rs:0 ~imm:0
  | Mov (rd, rs) -> pack ~op:op_mov ~rd ~rs ~imm:0
  | Movi (rd, imm) -> pack ~op:op_movi ~rd ~rs:0 ~imm
  | Lui (rd, imm) -> pack ~op:op_lui ~rd ~rs:0 ~imm
  | Add (d, s, t) -> pack ~op:op_add ~rd:d ~rs:s ~imm:t
  | Sub (d, s, t) -> pack ~op:op_sub ~rd:d ~rs:s ~imm:t
  | Mul (d, s, t) -> pack ~op:op_mul ~rd:d ~rs:s ~imm:t
  | Div (d, s, t) -> pack ~op:op_div ~rd:d ~rs:s ~imm:t
  | Rem (d, s, t) -> pack ~op:op_rem ~rd:d ~rs:s ~imm:t
  | And (d, s, t) -> pack ~op:op_and ~rd:d ~rs:s ~imm:t
  | Or (d, s, t) -> pack ~op:op_or ~rd:d ~rs:s ~imm:t
  | Xor (d, s, t) -> pack ~op:op_xor ~rd:d ~rs:s ~imm:t
  | Shl (d, s, t) -> pack ~op:op_shl ~rd:d ~rs:s ~imm:t
  | Shr (d, s, t) -> pack ~op:op_shr ~rd:d ~rs:s ~imm:t
  | Sar (d, s, t) -> pack ~op:op_sar ~rd:d ~rs:s ~imm:t
  | Slt (d, s, t) -> pack ~op:op_slt ~rd:d ~rs:s ~imm:t
  | Sltu (d, s, t) -> pack ~op:op_sltu ~rd:d ~rs:s ~imm:t
  | Seq (d, s, t) -> pack ~op:op_seq ~rd:d ~rs:s ~imm:t
  | Addi (d, s, imm) -> pack ~op:op_addi ~rd:d ~rs:s ~imm
  | Andi (d, s, imm) -> pack ~op:op_andi ~rd:d ~rs:s ~imm
  | Ori (d, s, imm) -> pack ~op:op_ori ~rd:d ~rs:s ~imm
  | Xori (d, s, imm) -> pack ~op:op_xori ~rd:d ~rs:s ~imm
  | Shli (d, s, imm) -> pack ~op:op_shli ~rd:d ~rs:s ~imm
  | Shri (d, s, imm) -> pack ~op:op_shri ~rd:d ~rs:s ~imm
  | Sari (d, s, imm) -> pack ~op:op_sari ~rd:d ~rs:s ~imm
  | Load (d, s, imm) -> pack ~op:op_load ~rd:d ~rs:s ~imm
  | Store (d, s, imm) -> pack ~op:op_store ~rd:d ~rs:s ~imm
  | Jmp off -> pack ~op:op_jmp ~rd:0 ~rs:0 ~imm:off
  | Jal (rd, off) -> pack ~op:op_jal ~rd ~rs:0 ~imm:off
  | Jr rs -> pack ~op:op_jr ~rd:0 ~rs ~imm:0
  | Jalr (rd, rs) -> pack ~op:op_jalr ~rd ~rs ~imm:0
  | Beq (s, t, off) -> pack ~op:op_beq ~rd:s ~rs:t ~imm:off
  | Bne (s, t, off) -> pack ~op:op_bne ~rd:s ~rs:t ~imm:off
  | Blt (s, t, off) -> pack ~op:op_blt ~rd:s ~rs:t ~imm:off
  | Bge (s, t, off) -> pack ~op:op_bge ~rd:s ~rs:t ~imm:off
  | Bltu (s, t, off) -> pack ~op:op_bltu ~rd:s ~rs:t ~imm:off
  | Bgeu (s, t, off) -> pack ~op:op_bgeu ~rd:s ~rs:t ~imm:off
  | In (rd, port) -> pack ~op:op_in ~rd ~rs:0 ~imm:port
  | Out (rs, port) -> pack ~op:op_out ~rd:0 ~rs ~imm:port

(* The opcodes of [encode] as literals, so the match is a jump table. *)
let decode w =
  let rd = (w lsr 20) land 0xf in
  let rs = (w lsr 16) land 0xf in
  let imm = w land mask16 in
  let rt = imm land 0xf in
  match (w lsr 24) land 0xff with
  | 0x00 -> Halt
  | 0x01 -> Nop
  | 0x02 -> Ei
  | 0x03 -> Di
  | 0x04 -> Iret
  | 0x05 -> Mov (rd, rs)
  | 0x06 -> Movi (rd, sext16 imm)
  | 0x07 -> Lui (rd, imm)
  | 0x10 -> Add (rd, rs, rt)
  | 0x11 -> Sub (rd, rs, rt)
  | 0x12 -> Mul (rd, rs, rt)
  | 0x13 -> Div (rd, rs, rt)
  | 0x14 -> Rem (rd, rs, rt)
  | 0x15 -> And (rd, rs, rt)
  | 0x16 -> Or (rd, rs, rt)
  | 0x17 -> Xor (rd, rs, rt)
  | 0x18 -> Shl (rd, rs, rt)
  | 0x19 -> Shr (rd, rs, rt)
  | 0x1a -> Sar (rd, rs, rt)
  | 0x1b -> Slt (rd, rs, rt)
  | 0x1c -> Sltu (rd, rs, rt)
  | 0x1d -> Seq (rd, rs, rt)
  | 0x20 -> Addi (rd, rs, sext16 imm)
  | 0x21 -> Andi (rd, rs, imm)
  | 0x22 -> Ori (rd, rs, imm)
  | 0x23 -> Xori (rd, rs, imm)
  | 0x24 -> Shli (rd, rs, imm land 31)
  | 0x25 -> Shri (rd, rs, imm land 31)
  | 0x26 -> Sari (rd, rs, imm land 31)
  | 0x30 -> Load (rd, rs, sext16 imm)
  | 0x31 -> Store (rd, rs, sext16 imm)
  | 0x40 -> Jmp (sext16 imm)
  | 0x41 -> Jal (rd, sext16 imm)
  | 0x42 -> Jr rs
  | 0x43 -> Jalr (rd, rs)
  | 0x44 -> Beq (rd, rs, sext16 imm)
  | 0x45 -> Bne (rd, rs, sext16 imm)
  | 0x46 -> Blt (rd, rs, sext16 imm)
  | 0x47 -> Bge (rd, rs, sext16 imm)
  | 0x48 -> Bltu (rd, rs, sext16 imm)
  | 0x49 -> Bgeu (rd, rs, sext16 imm)
  | 0x50 -> In (rd, imm)
  | 0x51 -> Out (rs, imm)
  | _ -> raise (Decode_error w)

let is_branch = function
  | Jmp _ | Jal _ | Jr _ | Jalr _ | Beq _ | Bne _ | Blt _ | Bge _ | Bltu _ | Bgeu _ ->
    true
  | Halt | Nop | Ei | Di | Iret | Mov _ | Movi _ | Lui _ | Add _ | Sub _ | Mul _
  | Div _ | Rem _ | And _ | Or _ | Xor _ | Shl _ | Shr _ | Sar _ | Slt _ | Sltu _
  | Seq _ | Addi _ | Andi _ | Ori _ | Xori _ | Shli _ | Shri _ | Sari _ | Load _
  | Store _ | In _ | Out _ ->
    false

let reg_name r =
  match r with
  | 12 -> "fp"
  | 13 -> "sp"
  | 14 -> "lr"
  | 15 -> "at"
  | _ -> Printf.sprintf "r%d" r

let port_console = 0x10
let port_clock = 0x20
let port_rng = 0x21
let port_input = 0x30
let port_input_avail = 0x31
let port_net_rx_avail = 0x40
let port_net_rx = 0x41
let port_net_tx = 0x42
let port_net_tx_send = 0x43
let port_net_rx_next = 0x44
let port_net_rx_len = 0x45
let port_disk_sector = 0x50
let port_disk_word = 0x51
let port_disk_read = 0x52
let port_disk_write = 0x53
let port_timer_ctl = 0x60
let port_sleep = 0x61
let port_frame = 0x70
let port_ivt = 0xf0
let port_irq_cause = 0xf1

let named_ports =
  [
    ("CONSOLE", port_console);
    ("CLOCK", port_clock);
    ("RNG", port_rng);
    ("INPUT", port_input);
    ("INPUT_AVAIL", port_input_avail);
    ("NET_RX_AVAIL", port_net_rx_avail);
    ("NET_RX", port_net_rx);
    ("NET_TX", port_net_tx);
    ("NET_TX_SEND", port_net_tx_send);
    ("NET_RX_NEXT", port_net_rx_next);
    ("NET_RX_LEN", port_net_rx_len);
    ("DISK_SECTOR", port_disk_sector);
    ("DISK_WORD", port_disk_word);
    ("DISK_READ", port_disk_read);
    ("DISK_WRITE", port_disk_write);
    ("TIMER_CTL", port_timer_ctl);
    ("SLEEP", port_sleep);
    ("FRAME", port_frame);
    ("IVT", port_ivt);
    ("IRQ_CAUSE", port_irq_cause);
  ]

let port_name p =
  match List.find_opt (fun (_, v) -> v = p) named_ports with
  | Some (n, _) -> n
  | None -> Printf.sprintf "0x%x" p

let to_string i =
  let r = reg_name in
  match i with
  | Halt -> "halt"
  | Nop -> "nop"
  | Ei -> "ei"
  | Di -> "di"
  | Iret -> "iret"
  | Mov (d, s) -> Printf.sprintf "mov %s, %s" (r d) (r s)
  | Movi (d, v) -> Printf.sprintf "movi %s, %d" (r d) v
  | Lui (d, v) -> Printf.sprintf "lui %s, %d" (r d) v
  | Add (d, s, t) -> Printf.sprintf "add %s, %s, %s" (r d) (r s) (r t)
  | Sub (d, s, t) -> Printf.sprintf "sub %s, %s, %s" (r d) (r s) (r t)
  | Mul (d, s, t) -> Printf.sprintf "mul %s, %s, %s" (r d) (r s) (r t)
  | Div (d, s, t) -> Printf.sprintf "div %s, %s, %s" (r d) (r s) (r t)
  | Rem (d, s, t) -> Printf.sprintf "rem %s, %s, %s" (r d) (r s) (r t)
  | And (d, s, t) -> Printf.sprintf "and %s, %s, %s" (r d) (r s) (r t)
  | Or (d, s, t) -> Printf.sprintf "or %s, %s, %s" (r d) (r s) (r t)
  | Xor (d, s, t) -> Printf.sprintf "xor %s, %s, %s" (r d) (r s) (r t)
  | Shl (d, s, t) -> Printf.sprintf "shl %s, %s, %s" (r d) (r s) (r t)
  | Shr (d, s, t) -> Printf.sprintf "shr %s, %s, %s" (r d) (r s) (r t)
  | Sar (d, s, t) -> Printf.sprintf "sar %s, %s, %s" (r d) (r s) (r t)
  | Slt (d, s, t) -> Printf.sprintf "slt %s, %s, %s" (r d) (r s) (r t)
  | Sltu (d, s, t) -> Printf.sprintf "sltu %s, %s, %s" (r d) (r s) (r t)
  | Seq (d, s, t) -> Printf.sprintf "seq %s, %s, %s" (r d) (r s) (r t)
  | Addi (d, s, v) -> Printf.sprintf "addi %s, %s, %d" (r d) (r s) v
  | Andi (d, s, v) -> Printf.sprintf "andi %s, %s, %d" (r d) (r s) v
  | Ori (d, s, v) -> Printf.sprintf "ori %s, %s, %d" (r d) (r s) v
  | Xori (d, s, v) -> Printf.sprintf "xori %s, %s, %d" (r d) (r s) v
  | Shli (d, s, v) -> Printf.sprintf "shli %s, %s, %d" (r d) (r s) v
  | Shri (d, s, v) -> Printf.sprintf "shri %s, %s, %d" (r d) (r s) v
  | Sari (d, s, v) -> Printf.sprintf "sari %s, %s, %d" (r d) (r s) v
  | Load (d, s, v) -> Printf.sprintf "load %s, %s, %d" (r d) (r s) v
  | Store (d, s, v) -> Printf.sprintf "store %s, %s, %d" (r d) (r s) v
  | Jmp off -> Printf.sprintf "jmp %d" off
  | Jal (d, off) -> Printf.sprintf "jal %s, %d" (r d) off
  | Jr s -> Printf.sprintf "jr %s" (r s)
  | Jalr (d, s) -> Printf.sprintf "jalr %s, %s" (r d) (r s)
  | Beq (s, t, off) -> Printf.sprintf "beq %s, %s, %d" (r s) (r t) off
  | Bne (s, t, off) -> Printf.sprintf "bne %s, %s, %d" (r s) (r t) off
  | Blt (s, t, off) -> Printf.sprintf "blt %s, %s, %d" (r s) (r t) off
  | Bge (s, t, off) -> Printf.sprintf "bge %s, %s, %d" (r s) (r t) off
  | Bltu (s, t, off) -> Printf.sprintf "bltu %s, %s, %d" (r s) (r t) off
  | Bgeu (s, t, off) -> Printf.sprintf "bgeu %s, %s, %d" (r s) (r t) off
  | In (d, p) -> Printf.sprintf "in %s, %s" (r d) (port_name p)
  | Out (s, p) -> Printf.sprintf "out %s, %s" (r s) (port_name p)
