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

let fault m reason =
  m.halted <- true;
  raise (Runtime_fault { pc = m.pc; reason })

(* Signed view of a 32-bit word. *)
let s v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

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

(* The per-instruction helpers are top-level functions of [m] rather
   than closures local to the interpreter: without flambda a local
   closure is allocated on every instruction. *)
let r m i = m.regs.(i)
let set m i v = m.regs.(i) <- v land mask32
let mem_read m a =
  try Memory.read m.mem a with Memory.Fault a -> fault m (Printf.sprintf "load fault at 0x%x" a)

let mem_write m a v =
  try Memory.write m.mem a v with Memory.Fault a -> fault m (Printf.sprintf "store fault at 0x%x" a)

let jump m target =
  m.branches <- m.branches + 1;
  m.pc <- target land mask32

let branch m cond next off = if cond then jump m (next + off) else m.pc <- next

(* The decode cache: one per domain, shared by every machine that runs
   on it. A slot is keyed by address and valid only while it holds the
   word now in memory there, and decoding is a pure function of the
   word, so a slot filled by another machine, another image or code
   since overwritten simply misses. The arrays only grow, to the
   largest memory run on the domain. *)
type icache = { mutable words : int array; mutable instrs : Isa.instr array }

let icache_key = Domain.DLS.new_key (fun () -> { words = [||]; instrs = [||] })

(* Looked up once per [step] or [run_until], so the instruction loop
   makes no domain-local lookup. *)
let icache m =
  let c = Domain.DLS.get icache_key in
  let n = Memory.size m.mem in
  if Array.length c.words < n then begin
    c.words <- Array.make n (-1);
    c.instrs <- Array.make n Isa.Nop
  end;
  c

(* Reads the cache's fields on every call and indexes with bounds
   checks: a run nested in a tracer or backend call may have grown the
   arrays since the caller looked the cache up. *)
let fetch m c =
  let pc = m.pc in
  let word =
    try Memory.read m.mem pc with Memory.Fault a -> fault m (Printf.sprintf "pc out of range: 0x%x" a)
  in
  if c.words.(pc) = word then c.instrs.(pc)
  else begin
    let d = try Isa.decode word with Isa.Decode_error w -> fault m (Printf.sprintf "bad opcode 0x%08x" w) in
    Avm_obs.Metrics.incr "machine.decodes";
    c.words.(pc) <- word;
    c.instrs.(pc) <- d;
    d
  end

(* Runs the tracer and executes [i]. True iff [i] called the backend or
   can have made a pending interrupt deliverable (Ei, Iret), or halted:
   the instructions after which {!run_until} hands control back. *)
let exec m backend i =
  (match m.tracer with None -> () | Some hook -> hook m i);
  m.icount <- m.icount + 1;
  let next = m.pc + 1 in
  match i with
  | Isa.Halt ->
    m.halted <- true;
    m.pc <- next;
    true
  | Isa.Nop ->
    m.pc <- next;
    false
  | Isa.Ei ->
    m.int_enabled <- true;
    m.pc <- next;
    true
  | Isa.Di ->
    m.int_enabled <- false;
    m.pc <- next;
    false
  | Isa.Iret ->
    m.in_handler <- false;
    m.int_enabled <- true;
    m.pc <- m.saved_pc;
    true
  | Isa.Mov (d, sr) ->
    set m d (r m sr);
    m.pc <- next;
    false
  | Isa.Movi (d, v) ->
    set m d v;
    m.pc <- next;
    false
  | Isa.Lui (d, v) ->
    set m d (v lsl 16);
    m.pc <- next;
    false
  | Isa.Add (d, a, b) ->
    set m d (r m a + r m b);
    m.pc <- next;
    false
  | Isa.Sub (d, a, b) ->
    set m d (r m a - r m b);
    m.pc <- next;
    false
  | Isa.Mul (d, a, b) ->
    set m d (r m a * r m b);
    m.pc <- next;
    false
  | Isa.Div (d, a, b) ->
    set m d (if r m b = 0 then 0 else s (r m a) / s (r m b));
    m.pc <- next;
    false
  | Isa.Rem (d, a, b) ->
    set m d (if r m b = 0 then 0 else s (r m a) mod s (r m b));
    m.pc <- next;
    false
  | Isa.And (d, a, b) ->
    set m d (r m a land r m b);
    m.pc <- next;
    false
  | Isa.Or (d, a, b) ->
    set m d (r m a lor r m b);
    m.pc <- next;
    false
  | Isa.Xor (d, a, b) ->
    set m d (r m a lxor r m b);
    m.pc <- next;
    false
  | Isa.Shl (d, a, b) ->
    set m d (r m a lsl (r m b land 31));
    m.pc <- next;
    false
  | Isa.Shr (d, a, b) ->
    set m d (r m a lsr (r m b land 31));
    m.pc <- next;
    false
  | Isa.Sar (d, a, b) ->
    set m d (s (r m a) asr (r m b land 31));
    m.pc <- next;
    false
  | Isa.Slt (d, a, b) ->
    set m d (if s (r m a) < s (r m b) then 1 else 0);
    m.pc <- next;
    false
  | Isa.Sltu (d, a, b) ->
    set m d (if r m a < r m b then 1 else 0);
    m.pc <- next;
    false
  | Isa.Seq (d, a, b) ->
    set m d (if r m a = r m b then 1 else 0);
    m.pc <- next;
    false
  | Isa.Addi (d, a, v) ->
    set m d (r m a + v);
    m.pc <- next;
    false
  | Isa.Andi (d, a, v) ->
    set m d (r m a land v);
    m.pc <- next;
    false
  | Isa.Ori (d, a, v) ->
    set m d (r m a lor v);
    m.pc <- next;
    false
  | Isa.Xori (d, a, v) ->
    set m d (r m a lxor v);
    m.pc <- next;
    false
  | Isa.Shli (d, a, v) ->
    set m d (r m a lsl v);
    m.pc <- next;
    false
  | Isa.Shri (d, a, v) ->
    set m d (r m a lsr v);
    m.pc <- next;
    false
  | Isa.Sari (d, a, v) ->
    set m d (s (r m a) asr v);
    m.pc <- next;
    false
  | Isa.Load (d, a, off) ->
    set m d (mem_read m (r m a + off));
    m.pc <- next;
    false
  | Isa.Store (v, a, off) ->
    mem_write m (r m a + off) (r m v);
    m.pc <- next;
    false
  | Isa.Jmp off ->
    jump m (next + off);
    false
  | Isa.Jal (d, off) ->
    set m d next;
    jump m (next + off);
    false
  | Isa.Jr a ->
    jump m (r m a);
    false
  | Isa.Jalr (d, a) ->
    let target = r m a in
    set m d next;
    jump m target;
    false
  | Isa.Beq (a, b, off) ->
    branch m (r m a = r m b) next off;
    false
  | Isa.Bne (a, b, off) ->
    branch m (r m a <> r m b) next off;
    false
  | Isa.Blt (a, b, off) ->
    branch m (s (r m a) < s (r m b)) next off;
    false
  | Isa.Bge (a, b, off) ->
    branch m (s (r m a) >= s (r m b)) next off;
    false
  | Isa.Bltu (a, b, off) ->
    branch m (r m a < r m b) next off;
    false
  | Isa.Bgeu (a, b, off) ->
    branch m (r m a >= r m b) next off;
    false
  | Isa.In (d, port) ->
    set m d (handle_in m backend port);
    m.pc <- next;
    not (internal_in port)
  | Isa.Out (sr, port) ->
    handle_out m backend port (r m sr);
    m.pc <- next;
    not (internal_out port)

let step m backend =
  if m.halted then false
  else begin
    if irq_deliverable m then begin
      match backend.poll_irq () with
      | Some line -> deliver_irq m line
      | None -> ()
    end;
    ignore (exec m backend (fetch m (icache m)));
    not m.halted
  end

let run_until m backend ~limit =
  let c = icache m in
  let stop = ref m.halted in
  while (not !stop) && m.icount < limit do
    stop := exec m backend (fetch m c)
  done

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
