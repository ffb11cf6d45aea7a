(** The AVM-32 instruction set.

    A small 32-bit RISC-style ISA executed by {!Avm_machine}. It plays
    the role x86 plays in the paper: the binary format guest images are
    shipped in, executed, and deterministically replayed. Design points
    that matter for accountability:

    - fixed 32-bit encoding, one word per instruction, word-addressed
      memory — keeps images and snapshots simple;
    - every taken control transfer increments the CPU's branch counter,
      giving the (pc, branch count, instruction count) landmarks used to
      time asynchronous event injection during replay (paper §4.4);
    - all nondeterminism enters through [In] instructions and interrupt
      delivery — there are no other nondeterministic instructions.

    Registers are [r0]–[r15]; conventions (used by the compiler, not
    enforced by hardware): [r12] frame pointer, [r13] stack pointer,
    [r14] link register, [r15] assembler temporary. *)

type reg = int
(** Register index in [\[0, 15\]]. *)

type instr =
  (* system *)
  | Halt  (** stop the CPU; the machine reports a halt *)
  | Nop
  | Ei  (** enable interrupts *)
  | Di  (** disable interrupts *)
  | Iret  (** return from interrupt: restore pc, re-enable interrupts *)
  (* moves and immediates *)
  | Mov of reg * reg  (** [rd := rs] *)
  | Movi of reg * int  (** [rd := sext(imm16)] *)
  | Lui of reg * int  (** [rd := imm16 << 16] *)
  (* ALU, register *)
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Div of reg * reg * reg  (** signed; division by zero yields 0 *)
  | Rem of reg * reg * reg  (** signed; remainder by zero yields 0 *)
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Shl of reg * reg * reg  (** shift count taken mod 32 *)
  | Shr of reg * reg * reg  (** logical *)
  | Sar of reg * reg * reg  (** arithmetic *)
  | Slt of reg * reg * reg  (** signed less-than, 0/1 *)
  | Sltu of reg * reg * reg  (** unsigned less-than, 0/1 *)
  | Seq of reg * reg * reg  (** equality, 0/1 *)
  (* ALU, immediate *)
  | Addi of reg * reg * int  (** [imm16] sign-extended *)
  | Andi of reg * reg * int  (** [imm16] zero-extended *)
  | Ori of reg * reg * int  (** [imm16] zero-extended *)
  | Xori of reg * reg * int  (** [imm16] zero-extended *)
  | Shli of reg * reg * int
  | Shri of reg * reg * int
  | Sari of reg * reg * int
  (* memory *)
  | Load of reg * reg * int  (** [rd := mem\[rs + sext(imm16)\]] *)
  | Store of reg * reg * int  (** [mem\[rs + sext(imm16)\] := rd] *)
  (* control; offsets are relative to the next instruction *)
  | Jmp of int
  | Jal of reg * int  (** [rd := pc + 1], jump *)
  | Jr of reg
  | Jalr of reg * reg  (** [rd := pc + 1], jump to [rs] *)
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int  (** signed *)
  | Bge of reg * reg * int  (** signed *)
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  (* I/O *)
  | In of reg * int  (** [rd := port\[imm16\]] — may be nondeterministic *)
  | Out of reg * int  (** [port\[imm16\] := rd] *)

exception Decode_error of int
(** Raised on an undefined opcode; carries the offending word. *)

val encode : instr -> int
(** [encode i] is the 32-bit instruction word (as a non-negative
    int). *)

val decode : int -> instr
(** [decode w] inverts {!encode}.
    @raise Decode_error on undefined encodings. *)

val sext16 : int -> int
(** The signed value of a 16-bit immediate field ([0 <= imm <= 0xffff]),
    as {!decode} reads it for Movi, Addi, Load, Store, Jmp, Jal and the
    conditional branches. *)

val to_string : instr -> string
(** Assembler-syntax rendering, e.g. ["add r1, r2, r3"]. *)

val is_branch : instr -> bool
(** True for every control-transfer instruction (the ones that bump the
    branch counter when taken). *)

val reg_name : reg -> string
(** ["r0"].."r11", then ["fp"], ["sp"], ["lr"], ["at"]. *)

(** {1 Well-known I/O ports}

    The device model behind these lives in {!Avm_machine.Devices}. *)

val port_console : int (* 0x10: Out byte — console output (an observable) *)
val port_clock : int (* 0x20: In — virtual microseconds (nondeterministic) *)
val port_rng : int (* 0x21: In — random word (nondeterministic) *)
val port_input : int (* 0x30: In — next local input event, 0 if none *)
val port_input_avail : int (* 0x31: In — queued local input events *)
val port_net_rx_avail : int (* 0x40: In — queued incoming packets *)
val port_net_rx : int (* 0x41: In — next word of current rx packet *)
val port_net_rx_len : int (* 0x45: In — word length of current rx packet *)
val port_net_rx_next : int (* 0x44: Out — drop current rx packet, advance *)
val port_net_tx : int (* 0x42: Out — append word to tx buffer *)
val port_net_tx_send : int (* 0x43: Out — flush tx buffer as one packet *)
val port_disk_sector : int (* 0x50: Out — select sector *)
val port_disk_word : int (* 0x51: Out — select word within sector *)
val port_disk_read : int (* 0x52: In — read selected word (deterministic) *)
val port_disk_write : int (* 0x53: Out — write selected word *)
val port_timer_ctl : int (* 0x60: Out — interval in instructions; 0 stops *)
val port_sleep : int (* 0x61: Out — park the guest: 0 = until woken, n>0 = at most n us *)
val port_frame : int (* 0x70: Out — frame-rendered marker *)
val port_ivt : int (* 0xf0: Out — set interrupt vector address *)
val port_irq_cause : int (* 0xf1: In — line of the last delivered IRQ (deterministic) *)

val port_name : int -> string
(** Symbolic name for a well-known port, or hex otherwise. *)

val named_ports : (string * int) list
(** Assembler-visible names, e.g. [("CLOCK", 0x20)]. *)
