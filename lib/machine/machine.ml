open Avm_isa

type observation = Console of int | Frame | Packet_sent of int array

type backend = {
  io_in : int -> int;
  io_out : int -> int -> unit;
  observe : observation -> unit;
  poll_irq : unit -> int option;
}

let null_backend =
  { io_in = (fun _ -> 0); io_out = (fun _ _ -> ()); observe = ignore; poll_irq = (fun () -> None) }

type t = {
  regs : int array;
  mutable pc : int;
  mutable icount : int;
  mutable branches : int;
  mem : Memory.t;
  mutable halted : bool;
  mutable int_enabled : bool;
  mutable in_handler : bool;
  mutable saved_pc : int;
  mutable ivt : int;
  mutable last_irq : int;
  mutable tx : int list; (* NET_TX assembly buffer, reversed *)
  mutable frames : int;
  mutable console_chars : int;
  disk : (int, int array) Hashtbl.t;
  mutable disk_sector : int;
  mutable disk_word : int;
  mutable tracer : (t -> Avm_isa.Isa.instr -> unit) option;
}

exception Runtime_fault of { pc : int; reason : string }

let mask32 = 0xffffffff
let sector_words = 256

let create ?(mem_words = 65536) image =
  let mem = Memory.create ~words:mem_words in
  Memory.load_image mem image;
  {
    regs = Array.make 16 0;
    pc = 0;
    icount = 0;
    branches = 0;
    mem;
    halted = false;
    int_enabled = false;
    in_handler = false;
    saved_pc = 0;
    ivt = 0;
    last_irq = 0;
    tx = [];
    frames = 0;
    console_chars = 0;
    disk = Hashtbl.create 16;
    disk_sector = 0;
    disk_word = 0;
    tracer = None;
  }

let landmark m = { Landmark.icount = m.icount; pc = m.pc; branches = m.branches }
let halted m = m.halted
let pc m = m.pc
let icount m = m.icount
let branches m = m.branches
let reg m i = m.regs.(i)
let set_reg m i v = m.regs.(i) <- v land mask32
let mem m = m.mem
let frames m = m.frames
let console_chars m = m.console_chars

(* Signed view of a 32-bit word. *)
let s v = (v lxor 0x80000000) - 0x80000000

let disk_sector_data m sector =
  match Hashtbl.find_opt m.disk sector with
  | Some a -> a
  | None ->
    let a = Array.make sector_words 0 in
    Hashtbl.replace m.disk sector a;
    a

let handle_in m backend port =
  if port = Isa.port_disk_read then begin
    let a = disk_sector_data m m.disk_sector in
    let v = a.(m.disk_word land (sector_words - 1)) in
    m.disk_word <- (m.disk_word + 1) land (sector_words - 1);
    v
  end
  else if port = Isa.port_irq_cause then m.last_irq
  else backend.io_in port land mask32

let handle_out m backend port v =
  if port = Isa.port_console then begin
    m.console_chars <- m.console_chars + 1;
    backend.observe (Console v)
  end
  else if port = Isa.port_frame then begin
    m.frames <- m.frames + 1;
    backend.observe Frame
  end
  else if port = Isa.port_net_tx then m.tx <- v :: m.tx
  else if port = Isa.port_net_tx_send then begin
    let packet = Array.of_list (List.rev m.tx) in
    m.tx <- [];
    backend.observe (Packet_sent packet)
  end
  else if port = Isa.port_disk_sector then m.disk_sector <- v
  else if port = Isa.port_disk_word then m.disk_word <- v land (sector_words - 1)
  else if port = Isa.port_disk_write then begin
    let a = disk_sector_data m m.disk_sector in
    a.(m.disk_word land (sector_words - 1)) <- v;
    m.disk_word <- (m.disk_word + 1) land (sector_words - 1)
  end
  else if port = Isa.port_ivt then m.ivt <- v
  else backend.io_out port v

let deliver_irq m line =
  m.saved_pc <- m.pc;
  m.pc <- m.ivt;
  m.in_handler <- true;
  m.int_enabled <- false;
  m.last_irq <- line

let irq_deliverable m = m.int_enabled && not m.in_handler

(* Ports the machine serves from its own devices; an access to any
   other port calls the backend. *)
let internal_in port = port = Isa.port_disk_read || port = Isa.port_irq_cause

let internal_out port =
  port = Isa.port_net_tx || port = Isa.port_disk_sector || port = Isa.port_disk_word
  || port = Isa.port_disk_write || port = Isa.port_ivt

(* The kernel keeps pc, icount and branches in local variables. No
   register survives a call in OCaml's calling convention, so a local
   still needed after any call in the loop would live on the stack:
   the kernel makes no call after which one is. [sync] writes them
   back before every store (the watch hook reads the icount) and every
   [In] and [Out] (the backend may read the landmark), and the kernel
   reloads them from the record after the call. A fault writes them
   back and the kernel raises it. Code outside the kernel thus sees the
   machine as the instruction-by-instruction interpreter left it:
   mid-instruction, with icount already counting the instruction and
   pc still on it. *)
let sync m pc icount branches =
  m.pc <- pc;
  m.icount <- icount;
  m.branches <- branches

(* The exception for a fault at [pc], raised by the kernel itself. *)
let fault_at m pc icount branches fmt v =
  sync m pc icount branches;
  m.halted <- true;
  Runtime_fault { pc; reason = Printf.sprintf fmt v }

(* [In] and [Out]: true iff the backend was called. *)
let port_in m backend d port =
  m.regs.(d) <- handle_in m backend port land mask32;
  not (internal_in port)

let port_out m backend s port =
  handle_out m backend port m.regs.(s);
  not (internal_out port)

(* Annotated: an [int array] access needs no float-array check. *)
let[@inline] r (regs : int array) i = Array.unsafe_get regs i
let[@inline] set (regs : int array) d v = Array.unsafe_set regs d (v land mask32)

(* Runs [budget] instructions, or fewer if an event stops it, executing
   the word at pc through one match on its opcode. Each arm takes its
   fields out as {!Isa.decode} does: rd = bits 20–23, rs = bits 16–19,
   rt = bits 0–3, and the 16-bit immediate sign-extended for Movi,
   Addi, Load, Store, Jmp, Jal and the branches, cut to 5 bits for the
   shift-immediates, unsigned otherwise. Register indices are 4-bit
   fields of a 16-entry array, so register accesses skip the bounds
   check; fetches and loads check bounds themselves. The loop runs
   until icount equals its start value + budget, in wrapping
   arithmetic, so [limit - icount] stops at [limit] even when the
   subtraction overflows. True iff it stopped on an event: halt, a
   backend call, [Ei] or [Iret]. *)
let kernel m backend ~budget =
  let regs = m.regs and words = Memory.words m.mem in
  let size = Array.length words in
  let pc = ref m.pc and icount = ref m.icount and branches = ref m.branches in
  let last = ref (if m.halted then m.icount else m.icount + budget) and stop = ref false in
  while !icount <> !last do
    let at = !pc in
    if at < 0 || at >= size then
      raise (fault_at m at !icount !branches "pc out of range: 0x%x" at);
    let w = Array.unsafe_get words at in
    let rd = (w lsr 20) land 15 and rs = (w lsr 16) land 15 and imm = w land 0xffff in
    let rt = imm land 15 in
    let next = at + 1 in
    icount := !icount + 1;
    pc := next;
    match w lsr 24 with
    | 0x00 (* halt *) ->
      m.halted <- true;
      stop := true;
      last := !icount
    | 0x01 (* nop *) -> ()
    | 0x02 (* ei *) ->
      m.int_enabled <- true;
      stop := true;
      last := !icount
    | 0x03 (* di *) -> m.int_enabled <- false
    | 0x04 (* iret *) ->
      m.in_handler <- false;
      m.int_enabled <- true;
      pc := m.saved_pc;
      stop := true;
      last := !icount
    | 0x05 (* mov *) -> set regs rd (r regs rs)
    | 0x06 (* movi *) -> set regs rd (Isa.sext16 imm)
    | 0x07 (* lui *) -> set regs rd (imm lsl 16)
    | 0x10 (* add *) -> set regs rd (r regs rs + r regs rt)
    | 0x11 (* sub *) -> set regs rd (r regs rs - r regs rt)
    | 0x12 (* mul *) -> set regs rd (r regs rs * r regs rt)
    | 0x13 (* div *) ->
      let b = r regs rt in
      set regs rd (if b = 0 then 0 else s (r regs rs) / s b)
    | 0x14 (* rem *) ->
      let b = r regs rt in
      set regs rd (if b = 0 then 0 else s (r regs rs) mod s b)
    | 0x15 (* and *) -> set regs rd (r regs rs land r regs rt)
    | 0x16 (* or *) -> set regs rd (r regs rs lor r regs rt)
    | 0x17 (* xor *) -> set regs rd (r regs rs lxor r regs rt)
    | 0x18 (* shl *) -> set regs rd (r regs rs lsl (r regs rt land 31))
    | 0x19 (* shr *) -> set regs rd (r regs rs lsr (r regs rt land 31))
    | 0x1a (* sar *) -> set regs rd (s (r regs rs) asr (r regs rt land 31))
    | 0x1b (* slt *) -> set regs rd (if s (r regs rs) < s (r regs rt) then 1 else 0)
    | 0x1c (* sltu *) -> set regs rd (if r regs rs < r regs rt then 1 else 0)
    | 0x1d (* seq *) -> set regs rd (if r regs rs = r regs rt then 1 else 0)
    | 0x20 (* addi *) -> set regs rd (r regs rs + Isa.sext16 imm)
    | 0x21 (* andi *) -> set regs rd (r regs rs land imm)
    | 0x22 (* ori *) -> set regs rd (r regs rs lor imm)
    | 0x23 (* xori *) -> set regs rd (r regs rs lxor imm)
    | 0x24 (* shli *) -> set regs rd (r regs rs lsl (imm land 31))
    | 0x25 (* shri *) -> set regs rd (r regs rs lsr (imm land 31))
    | 0x26 (* sari *) -> set regs rd (s (r regs rs) asr (imm land 31))
    | 0x30 (* load *) ->
      let a = r regs rs + Isa.sext16 imm in
      if a < 0 || a >= size then raise (fault_at m at !icount !branches "load fault at 0x%x" a);
      set regs rd (Array.unsafe_get words a)
    | 0x31 (* store *) ->
      let a = r regs rs + Isa.sext16 imm in
      if a < 0 || a >= size then raise (fault_at m at !icount !branches "store fault at 0x%x" a);
      sync m at !icount !branches;
      Memory.write m.mem a (r regs rd);
      pc := m.pc + 1;
      icount := m.icount;
      branches := m.branches
    | 0x40 (* jmp *) ->
      incr branches;
      pc := (next + Isa.sext16 imm) land mask32
    | 0x41 (* jal *) ->
      set regs rd next;
      incr branches;
      pc := (next + Isa.sext16 imm) land mask32
    | 0x42 (* jr *) ->
      incr branches;
      pc := r regs rs
    | 0x43 (* jalr *) ->
      let target = r regs rs in
      set regs rd next;
      incr branches;
      pc := target
    | 0x44 (* beq *) ->
      if r regs rd = r regs rs then begin
        incr branches;
        pc := (next + Isa.sext16 imm) land mask32
      end
    | 0x45 (* bne *) ->
      if r regs rd <> r regs rs then begin
        incr branches;
        pc := (next + Isa.sext16 imm) land mask32
      end
    | 0x46 (* blt *) ->
      if s (r regs rd) < s (r regs rs) then begin
        incr branches;
        pc := (next + Isa.sext16 imm) land mask32
      end
    | 0x47 (* bge *) ->
      if s (r regs rd) >= s (r regs rs) then begin
        incr branches;
        pc := (next + Isa.sext16 imm) land mask32
      end
    | 0x48 (* bltu *) ->
      if r regs rd < r regs rs then begin
        incr branches;
        pc := (next + Isa.sext16 imm) land mask32
      end
    | 0x49 (* bgeu *) ->
      if r regs rd >= r regs rs then begin
        incr branches;
        pc := (next + Isa.sext16 imm) land mask32
      end
    | 0x50 (* in *) ->
      sync m at !icount !branches;
      let called = port_in m backend rd imm in
      pc := m.pc + 1;
      icount := m.icount;
      branches := m.branches;
      if called then begin
        stop := true;
        last := !icount
      end
    | 0x51 (* out *) ->
      sync m at !icount !branches;
      let called = port_out m backend rs imm in
      pc := m.pc + 1;
      icount := m.icount;
      branches := m.branches;
      if called then begin
        stop := true;
        last := !icount
      end
    | _ -> raise (fault_at m at (!icount - 1) !branches "bad opcode 0x%08x" w)
  done;
  sync m !pc !icount !branches;
  !stop

(* One instruction, shown to the tracer first if one is installed.
   The tracer sees the decoded instruction and the machine's pre-state,
   so the traced path runs the kernel one instruction at a time and
   keeps the state in the record between instructions. *)
let one m backend =
  (match m.tracer with
  | None -> ()
  | Some hook ->
    let words = Memory.words m.mem and pc = m.pc in
    if pc < 0 || pc >= Array.length words then
      raise (fault_at m pc m.icount m.branches "pc out of range: 0x%x" pc);
    let i =
      try Isa.decode words.(pc)
      with Isa.Decode_error w -> raise (fault_at m pc m.icount m.branches "bad opcode 0x%08x" w)
    in
    hook m i);
  kernel m backend ~budget:1

let run_until m backend ~limit =
  match m.tracer with
  | None -> if m.icount < limit then ignore (kernel m backend ~budget:(limit - m.icount))
  | Some _ ->
    let stop = ref m.halted in
    while (not !stop) && m.icount < limit do
      stop := one m backend
    done

let step m backend =
  if m.halted then false
  else begin
    if irq_deliverable m then begin
      match backend.poll_irq () with
      | Some line -> deliver_irq m line
      | None -> ()
    end;
    ignore (one m backend);
    not m.halted
  end

let run m backend ~fuel =
  let executed = ref 0 in
  let continue = ref (not m.halted) in
  while !continue && !executed < fuel do
    continue := step m backend;
    incr executed
  done;
  !executed

let serialize_meta m =
  let open Avm_util in
  let w = Wire.writer () in
  Array.iter (Wire.u32 w) m.regs;
  Wire.varint w m.pc;
  Wire.varint w m.icount;
  Wire.varint w m.branches;
  Wire.bool w m.halted;
  Wire.bool w m.int_enabled;
  Wire.bool w m.in_handler;
  Wire.varint w m.saved_pc;
  Wire.varint w m.ivt;
  Wire.varint w m.last_irq;
  Wire.list w (fun w v -> Wire.u32 w v) (List.rev m.tx);
  Wire.varint w m.frames;
  Wire.varint w m.console_chars;
  Wire.varint w m.disk_sector;
  Wire.varint w m.disk_word;
  let sectors = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.disk [] in
  let sectors = List.sort compare sectors in
  Wire.list w
    (fun w (sector, data) ->
      Wire.varint w sector;
      Array.iter (Wire.u32 w) data)
    sectors;
  Wire.contents w

let restore_meta m blob =
  let open Avm_util in
  let r = Wire.reader blob in
  for i = 0 to 15 do
    m.regs.(i) <- Wire.read_u32 r
  done;
  m.pc <- Wire.read_varint r;
  m.icount <- Wire.read_varint r;
  m.branches <- Wire.read_varint r;
  m.halted <- Wire.read_bool r;
  m.int_enabled <- Wire.read_bool r;
  m.in_handler <- Wire.read_bool r;
  m.saved_pc <- Wire.read_varint r;
  m.ivt <- Wire.read_varint r;
  m.last_irq <- Wire.read_varint r;
  m.tx <- List.rev (Wire.read_list r Wire.read_u32);
  m.frames <- Wire.read_varint r;
  m.console_chars <- Wire.read_varint r;
  m.disk_sector <- Wire.read_varint r;
  m.disk_word <- Wire.read_varint r;
  Hashtbl.reset m.disk;
  let sectors =
    Wire.read_list r (fun r ->
        let sector = Wire.read_varint r in
        let data = Array.init sector_words (fun _ -> Wire.read_u32 r) in
        (sector, data))
  in
  List.iter (fun (sector, data) -> Hashtbl.replace m.disk sector data) sectors;
  Wire.expect_end r

let set_tracer m hook = m.tracer <- hook

let state_words m = Memory.size m.mem + (Hashtbl.length m.disk * sector_words)

let copy_disk m h =
  Hashtbl.iter (fun k v -> Hashtbl.replace h k (Array.copy v)) m.disk;
  h

(* Reusing [into] keeps its arrays and disk table and copies the
   scalar state through [{ m with ... }], so a field added to [t] is
   copied either way. *)
let copy ?into m =
  match into with
  | Some d when Memory.page_count d.mem = Memory.page_count m.mem ->
    Array.blit m.regs 0 d.regs 0 (Array.length m.regs);
    Memory.assign ~dst:d.mem m.mem;
    Hashtbl.clear d.disk;
    { m with tracer = None; regs = d.regs; mem = d.mem; disk = copy_disk m d.disk }
  | _ ->
    {
      m with
      tracer = None;
      regs = Array.copy m.regs;
      mem = Memory.copy m.mem;
      disk = copy_disk m (Hashtbl.create (Hashtbl.length m.disk));
    }

let state_equal a b =
  String.equal (serialize_meta a) (serialize_meta b)
  && Memory.size a.mem = Memory.size b.mem
  &&
  let n = Memory.size a.mem in
  let rec go i = i >= n || (Memory.read a.mem i = Memory.read b.mem i && go (i + 1)) in
  go 0
