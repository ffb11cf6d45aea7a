(** The AVM-32 virtual machine.

    Executes guest images instruction by instruction, routing all
    nondeterministic I/O through a {!backend} supplied by the caller.
    The AVMM ({!Avm_core.Avmm}) installs a recording backend that logs
    every nondeterministic value; the audit tool installs a replaying
    backend that serves the logged values back and cross-checks
    everything observable. Running the same image against backends
    that serve identical values yields bit-identical executions — the
    determinism property the whole paper rests on.

    Deterministic devices (the virtual disk, the IRQ-cause register,
    the frame counter, the NET_TX assembly buffer) live inside the
    machine and are part of its snapshotted state.

    One kernel executes every instruction: it reads the 32-bit word at
    pc and dispatches on its opcode byte, taking the fields out of the
    word as {!Avm_isa.Isa.decode} would, so nothing is decoded ahead
    or cached and code that stores over itself runs its new words. It
    keeps pc, the instruction count and the branch count in locals and
    writes them back before every backend call, store and fault, so
    backends, watch hooks and faults see the machine exactly where the
    instruction left it (DESIGN.md §27). With a tracer installed, each
    instruction is decoded for the tracer and the kernel runs one
    instruction at a time. *)

type t

(** What the guest makes externally observable. *)
type observation =
  | Console of int  (** byte written to the console *)
  | Frame  (** one frame rendered (screen refresh marker) *)
  | Packet_sent of int array  (** flushed NET_TX buffer: one outgoing packet *)

type backend = {
  io_in : int -> int;
      (** [io_in port] serves an [In] from a nondeterministic port. *)
  io_out : int -> int -> unit;
      (** [io_out port value] forwards [Out]s that target hardware
          outside the machine (NET_RX_NEXT, TIMER_CTL, unknown
          ports). *)
  observe : observation -> unit;
      (** Called on every observable output, in execution order. *)
  poll_irq : unit -> int option;
      (** Consulted between instructions when the CPU can accept an
          interrupt. Returning [Some line] delivers the interrupt; the
          backend must then consider it consumed. *)
}

val null_backend : backend
(** Ignores outputs, serves 0 on every input, never interrupts. *)

(** {1 Construction and execution} *)

val create : ?mem_words:int -> int array -> t
(** [create image] is a machine with [image] loaded at address 0,
    pc = 0, all registers zero. Default memory: 65536 words. *)

exception Runtime_fault of { pc : int; reason : string }
(** Raised when the guest does something undefined: bad opcode, memory
    access out of range. A faulting guest is halted. *)

val step : t -> backend -> bool
(** [step m b] delivers at most one pending interrupt and executes one
    instruction: the kernel with a one-instruction limit. Returns
    [false] iff the machine is (now) halted.
    @raise Runtime_fault on undefined behaviour (machine halts). *)

val run : t -> backend -> fuel:int -> int
(** [run m b ~fuel] steps until halt or [fuel] instructions; returns
    instructions executed. It polls before every instruction, as
    {!run_until}'s callers must behave as if they did. *)

val run_until : t -> backend -> limit:int -> unit
(** [run_until m b ~limit] runs the kernel without ever consulting
    [b.poll_irq] (DESIGN.md §22, §27). It returns
    - when [icount m = limit] (at once if [icount m >= limit]);
    - when the machine halts;
    - after any instruction that called the backend ([io_in],
      [io_out] or [observe]): the backend's state, and so the next
      event, may have moved;
    - after [Ei] or [Iret], the only instructions that can make a
      pending interrupt deliverable.

    Memory watch hooks run on every store. With a tracer installed,
    the tracer runs before every instruction and the kernel executes
    one instruction at a time. Between two returns no interrupt is
    delivered, so a caller that makes one {!step} at each return and
    passes the icount of its next possible interrupt as [limit]
    executes exactly what {!run} would.
    @raise Runtime_fault as {!step} does. *)

val irq_deliverable : t -> bool
(** Interrupts are enabled and no handler is running: {!step} would
    consult [poll_irq] before its next instruction. Only a delivered
    interrupt, [Di], [Ei] and [Iret] change it. *)

(** {1 Inspection} *)

val landmark : t -> Landmark.t
(** Current (instruction count, pc, branch count) — the injection
    coordinate for asynchronous events. *)

val halted : t -> bool
val pc : t -> int
val icount : t -> int
val branches : t -> int
val reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val mem : t -> Memory.t
val frames : t -> int
(** Frames rendered since boot (FRAME port writes). *)

val console_chars : t -> int
(** Console bytes written since boot. *)

(** {1 State serialization}

    [meta] covers everything except memory pages: registers, pc,
    counters, interrupt state, devices. Memory travels separately so
    snapshots can be incremental (see {!Snapshot}). *)

val serialize_meta : t -> string
val restore_meta : t -> string -> unit
(** @raise Avm_util.Wire.Malformed on garbage. *)

val set_tracer : t -> (t -> Avm_isa.Isa.instr -> unit) option -> unit
(** [set_tracer m hook] installs (or clears) an instruction observer:
    called once per executed instruction, after decode and {e before}
    execution, with the machine's pre-state. This is the paper's §7.5
    hook — expensive analyses (taint tracking, profiling, watchpoints)
    run during audit replay, never in the live system. While one is
    installed, every instruction is decoded with
    {!Avm_isa.Isa.decode} and executed on its own; unset, it costs
    one test per {!step} or {!run_until}. *)

val state_words : t -> int
(** Words of guest state held in arrays: memory plus every disk sector
    written so far. *)

val copy : ?into:t -> t -> t
(** Deep copy (for forking executions in tests and spot checks;
    tracers are not copied). With [into], a machine the caller no
    longer uses, the copy reuses its registers, memory and disk table
    when the memory sizes match ({!Memory.assign}), so restoring a
    remembered state allocates no memory-sized array; [into] must not
    be used afterwards. *)

val state_equal : t -> t -> bool
(** Full-state comparison: meta and all memory words. *)
