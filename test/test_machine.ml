open Avm_machine
open Avm_isa

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let image instrs = Array.map Isa.encode (Array.of_list instrs)

let run_image ?(fuel = 100_000) ?(backend = Machine.null_backend) instrs =
  let m = Machine.create ~mem_words:4096 (image instrs) in
  ignore (Machine.run m backend ~fuel);
  m

(* --- Memory ----------------------------------------------------------------- *)

let test_memory_bounds () =
  let mem = Memory.create ~words:512 in
  Memory.write mem 0 42;
  Memory.write mem 511 7;
  Alcotest.(check int) "read back" 42 (Memory.read mem 0);
  Alcotest.check_raises "oob read" (Memory.Fault 512) (fun () -> ignore (Memory.read mem 512));
  Alcotest.check_raises "neg" (Memory.Fault (-1)) (fun () -> ignore (Memory.read mem (-1)));
  Alcotest.check_raises "oob write" (Memory.Fault 9999) (fun () -> Memory.write mem 9999 1)

let test_memory_mask32 () =
  let mem = Memory.create ~words:16 in
  Memory.write mem 0 (-1);
  Alcotest.(check int) "masked" 0xffffffff (Memory.read mem 0)

let test_memory_dirty_tracking () =
  let mem = Memory.create ~words:(Memory.page_size * 4) in
  let m0 = Memory.mark mem in
  Alcotest.(check (list int)) "clean" [] (Memory.written_since mem m0);
  Memory.write mem 0 1;
  Memory.write mem (Memory.page_size * 2) 1;
  Alcotest.(check (list int)) "two pages" [ 0; 2 ] (Memory.written_since mem m0);
  let m1 = Memory.mark mem in
  Alcotest.(check (list int)) "cleared" [] (Memory.written_since mem m1);
  Alcotest.(check (list int)) "older mark unaffected" [ 0; 2 ] (Memory.written_since mem m0)

let test_memory_page_data_roundtrip () =
  let mem = Memory.create ~words:(Memory.page_size * 2) in
  for i = 0 to Memory.page_size - 1 do
    Memory.write mem (Memory.page_size + i) (i * 0x01010101)
  done;
  let data = Memory.page_data mem 1 in
  let mem2 = Memory.create ~words:(Memory.page_size * 2) in
  Memory.set_page_data mem2 1 data;
  for i = 0 to Memory.page_size - 1 do
    Alcotest.(check int) "word" (Memory.read mem (Memory.page_size + i))
      (Memory.read mem2 (Memory.page_size + i))
  done

let test_memory_copy_independent () =
  let mem = Memory.create ~words:64 in
  Memory.write mem 5 1;
  let c = Memory.copy mem in
  Memory.write mem 5 2;
  Alcotest.(check int) "copy unchanged" 1 (Memory.read c 5)

(* --- CPU semantics -------------------------------------------------------------- *)

let test_alu_wrap () =
  let m =
    run_image
      [
        Isa.Lui (1, 0xffff); Isa.Ori (1, 1, 0xffff); (* r1 = 0xffffffff *)
        Isa.Addi (2, 1, 1); (* wraps to 0 *)
        Isa.Mul (3, 1, 1); (* low 32 bits of (2^32-1)^2 = 1 *)
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "add wrap" 0 (Machine.reg m 2);
  Alcotest.(check int) "mul wrap" 1 (Machine.reg m 3)

let test_signed_ops () =
  let m =
    run_image
      [
        Isa.Movi (1, -10);
        Isa.Movi (2, 3);
        Isa.Div (3, 1, 2); (* -3 *)
        Isa.Rem (4, 1, 2); (* -1 *)
        Isa.Movi (5, 0);
        Isa.Div (6, 1, 5); (* div by zero -> 0 *)
        Isa.Rem (7, 1, 5); (* rem by zero -> 0 *)
        Isa.Sari (8, 1, 1); (* -5 *)
        Isa.Shri (9, 1, 28); (* logical: 0xf *)
        Isa.Slt (10, 1, 2); (* -10 < 3 -> 1 *)
        Isa.Sltu (11, 1, 2); (* unsigned: huge > 3 -> 0 *)
        Isa.Halt;
      ]
  in
  let w v = v land 0xffffffff in
  Alcotest.(check int) "div" (w (-3)) (Machine.reg m 3);
  Alcotest.(check int) "rem" (w (-1)) (Machine.reg m 4);
  Alcotest.(check int) "div0" 0 (Machine.reg m 6);
  Alcotest.(check int) "rem0" 0 (Machine.reg m 7);
  Alcotest.(check int) "sar" (w (-5)) (Machine.reg m 8);
  Alcotest.(check int) "shr" 0xf (Machine.reg m 9);
  Alcotest.(check int) "slt" 1 (Machine.reg m 10);
  Alcotest.(check int) "sltu" 0 (Machine.reg m 11)

let test_shift_by_register_masked () =
  let m =
    run_image
      [ Isa.Movi (1, 1); Isa.Movi (2, 33); Isa.Shl (3, 1, 2) (* 33 land 31 = 1 -> 2 *); Isa.Halt ]
  in
  Alcotest.(check int) "shift mod 32" 2 (Machine.reg m 3)

let test_branch_counter () =
  (* 3 taken branches: jmp, taken beq, and the jr; bne not taken. *)
  let m =
    run_image
      [
        Isa.Jmp 0; (* taken, always *)
        Isa.Movi (1, 5);
        Isa.Beq (1, 1, 0); (* taken *)
        Isa.Bne (1, 1, 5); (* not taken *)
        Isa.Movi (2, 6);
        Isa.Jr 3; (* r3 = 0... set first *)
        Isa.Halt;
      ]
  in
  ignore m;
  let m2 =
    run_image
      [
        Isa.Movi (3, 5); (* target of jr *)
        Isa.Jmp 0; (* fallthrough, counts *)
        Isa.Beq (0, 0, 0); (* r0=r0 taken *)
        Isa.Bne (0, 0, 1); (* not taken *)
        Isa.Jr 3; (* to halt *)
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "branches" 3 (Machine.branches m2);
  Alcotest.(check bool) "halted" true (Machine.halted m2)

let test_landmark_fields () =
  let m = run_image [ Isa.Nop; Isa.Nop; Isa.Halt ] in
  let lm = Machine.landmark m in
  Alcotest.(check int) "icount" 3 lm.Landmark.icount;
  Alcotest.(check int) "branches" 0 lm.Landmark.branches

let test_call_return () =
  let m =
    run_image
      [
        Isa.Jal (14, 1); (* call +1: skips halt *)
        Isa.Halt;
        Isa.Movi (1, 99);
        Isa.Jr 14;
      ]
  in
  Alcotest.(check int) "returned" 99 (Machine.reg m 1);
  Alcotest.(check bool) "halted" true (Machine.halted m)

let test_runtime_fault_bad_opcode () =
  let m = Machine.create ~mem_words:64 [| 0xff000000 |] in
  (match Machine.step m Machine.null_backend with
  | _ -> Alcotest.fail "expected fault"
  | exception Machine.Runtime_fault { reason; _ } ->
    Alcotest.(check bool) "reason" true (String.length reason > 0));
  Alcotest.(check bool) "halted after fault" true (Machine.halted m)

let test_runtime_fault_wild_store () =
  let m = Machine.create ~mem_words:64 (image [ Isa.Movi (1, 9999); Isa.Store (2, 1, 0) ]) in
  (match Machine.run m Machine.null_backend ~fuel:10 with
  | _ -> Alcotest.fail "expected fault"
  | exception Machine.Runtime_fault _ -> ());
  Alcotest.(check bool) "halted" true (Machine.halted m)

(* --- Interrupts -------------------------------------------------------------------- *)

let test_interrupt_gating () =
  (* IRQs must not be delivered before EI or inside a handler. *)
  let delivered = ref 0 in
  let backend =
    {
      Machine.null_backend with
      poll_irq =
        (fun () ->
          incr delivered;
          Some 0);
    }
  in
  let m =
    Machine.create ~mem_words:256
      (image [ Isa.Nop; Isa.Nop; Isa.Nop; Isa.Halt ])
  in
  ignore (Machine.run m backend ~fuel:100);
  Alcotest.(check int) "never polled without ei" 0 !delivered

let test_interrupt_flow () =
  (* handler increments r10 then irets; main spins. *)
  let prog =
    [
      Isa.Movi (1, 6); (* ivt target *)
      Isa.Out (1, Isa.port_ivt);
      Isa.Ei;
      Isa.Movi (2, 0);
      Isa.Addi (2, 2, 1); (* 4: spin *)
      Isa.Jmp (-2);
      (* 6: handler *)
      Isa.Addi (10, 10, 1);
      Isa.In (11, Isa.port_irq_cause);
      Isa.Iret;
    ]
  in
  let m = Machine.create ~mem_words:256 (image prog) in
  let sent = ref 0 in
  let backend =
    {
      Machine.null_backend with
      poll_irq =
        (fun () ->
          if !sent < 3 && Machine.icount m mod 50 = 0 then begin
            incr sent;
            Some 5
          end
          else None);
    }
  in
  ignore (Machine.run m backend ~fuel:1000);
  Alcotest.(check int) "three interrupts" 3 (Machine.reg m 10);
  Alcotest.(check int) "irq cause" 5 (Machine.reg m 11)

(* --- Devices ------------------------------------------------------------------------ *)

let test_disk_readback () =
  let prog =
    [
      Isa.Movi (1, 3);
      Isa.Out (1, Isa.port_disk_sector);
      Isa.Movi (2, 10);
      Isa.Out (2, Isa.port_disk_word);
      Isa.Movi (3, 1234);
      Isa.Out (3, Isa.port_disk_write);
      (* read it back *)
      Isa.Out (2, Isa.port_disk_word);
      Isa.In (4, Isa.port_disk_read);
      Isa.Halt;
    ]
  in
  let m = run_image prog in
  Alcotest.(check int) "disk word" 1234 (Machine.reg m 4)

let test_tx_buffer_flush () =
  let packets = ref [] in
  let backend =
    {
      Machine.null_backend with
      observe =
        (function
        | Machine.Packet_sent p -> packets := p :: !packets
        | Machine.Console _ | Machine.Frame -> ());
    }
  in
  let prog =
    [
      Isa.Movi (1, 7);
      Isa.Out (1, Isa.port_net_tx);
      Isa.Movi (1, 8);
      Isa.Out (1, Isa.port_net_tx);
      Isa.Out (1, Isa.port_net_tx_send);
      Isa.Movi (1, 9);
      Isa.Out (1, Isa.port_net_tx);
      Isa.Out (1, Isa.port_net_tx_send);
      Isa.Halt;
    ]
  in
  ignore (run_image ~backend prog);
  Alcotest.(check int) "two packets" 2 (List.length !packets);
  Alcotest.(check (array int)) "first" [| 7; 8 |] (List.nth (List.rev !packets) 0);
  Alcotest.(check (array int)) "second" [| 9 |] (List.nth (List.rev !packets) 1)

let test_frames_and_console () =
  let prog =
    [
      Isa.Movi (1, 65);
      Isa.Out (1, Isa.port_console);
      Isa.Out (1, Isa.port_frame);
      Isa.Out (1, Isa.port_frame);
      Isa.Halt;
    ]
  in
  let m = run_image prog in
  Alcotest.(check int) "frames" 2 (Machine.frames m);
  Alcotest.(check int) "console chars" 1 (Machine.console_chars m)

(* --- Determinism ---------------------------------------------------------------------- *)

let test_determinism_same_backend () =
  (* Two machines with identical inputs end bit-identical. *)
  let prog =
    [
      Isa.In (1, Isa.port_clock);
      Isa.In (2, Isa.port_rng);
      Isa.Add (3, 1, 2);
      Isa.Store (3, 0, 100);
      Isa.Halt;
    ]
  in
  let mk () =
    let m = Machine.create ~mem_words:4096 (image prog) in
    let vals = ref [ 111; 222 ] in
    let backend =
      {
        Machine.null_backend with
        io_in =
          (fun _ ->
            match !vals with
            | v :: rest ->
              vals := rest;
              v
            | [] -> 0);
      }
    in
    ignore (Machine.run m backend ~fuel:100);
    m
  in
  Alcotest.(check bool) "state equal" true (Machine.state_equal (mk ()) (mk ()))

let test_meta_roundtrip () =
  let prog = [ Isa.Movi (1, 42); Isa.Out (1, Isa.port_frame); Isa.Ei; Isa.Halt ] in
  let m = run_image prog in
  let blob = Machine.serialize_meta m in
  let m2 = Machine.create ~mem_words:4096 (image prog) in
  Machine.restore_meta m2 blob;
  Alcotest.(check string) "meta equal" blob (Machine.serialize_meta m2);
  Alcotest.(check int) "reg restored" 42 (Machine.reg m2 1);
  Alcotest.(check int) "frames restored" 1 (Machine.frames m2)

let test_meta_garbage () =
  let m = Machine.create ~mem_words:64 [| Isa.encode Isa.Halt |] in
  Alcotest.(check bool) "garbage rejected" true
    (match Machine.restore_meta m "garbage" with
    | () -> false
    | exception (Avm_util.Wire.Truncated | Avm_util.Wire.Malformed _) -> true)

(* --- Snapshots ------------------------------------------------------------------------- *)

let counting_prog =
  [
    Isa.Movi (1, 0);
    Isa.Addi (1, 1, 1);
    Isa.Store (1, 0, 200);
    Isa.Jmp (-3);
  ]

let test_snapshot_incremental_materialize () =
  let img = image counting_prog in
  let m = Machine.create ~mem_words:4096 img in
  let tr = Snapshot.tracker () in
  let s0 = Snapshot.take tr m in
  Alcotest.(check bool) "first full" true s0.Snapshot.full;
  ignore (Machine.run m Machine.null_backend ~fuel:100);
  let s1 = Snapshot.take tr m in
  Alcotest.(check bool) "second incremental" false s1.Snapshot.full;
  ignore (Machine.run m Machine.null_backend ~fuel:100);
  let s2 = Snapshot.take tr m in
  let m' = Result.get_ok (Snapshot.materialize ~mem_words:4096 ~image:img [ s0; s1; s2 ]) in
  Alcotest.(check bool) "materialized equal" true (Machine.state_equal m m');
  Alcotest.(check bool) "root verifies" true (Snapshot.verify m' ~expected_root:s2.Snapshot.root)

let test_snapshot_incremental_smaller () =
  let img = image counting_prog in
  let m = Machine.create ~mem_words:65536 img in
  let tr = Snapshot.tracker () in
  let s0 = Snapshot.take tr m in
  ignore (Machine.run m Machine.null_backend ~fuel:50);
  let s1 = Snapshot.take tr m in
  Alcotest.(check bool) "much smaller" true
    (Snapshot.size_bytes s1 * 10 < Snapshot.size_bytes s0)

let test_snapshot_encode_decode () =
  let img = image counting_prog in
  let m = Machine.create ~mem_words:4096 img in
  let tr = Snapshot.tracker () in
  ignore (Machine.run m Machine.null_backend ~fuel:70);
  let s = Snapshot.take tr m in
  let s' = Snapshot.decode (Snapshot.encode s) in
  Alcotest.(check bool) "equal" true (s = s');
  Alcotest.(check string) "digest stable" (Snapshot.state_digest s) (Snapshot.state_digest s')

let test_snapshot_digest_detects_poke () =
  let img = image counting_prog in
  let m = Machine.create ~mem_words:4096 img in
  let tr = Snapshot.tracker () in
  ignore (Machine.run m Machine.null_backend ~fuel:60);
  let s = Snapshot.take tr m in
  (* an identical machine with one poked word must not verify *)
  let m2 = Result.get_ok (Snapshot.materialize ~mem_words:4096 ~image:img [ s ]) in
  Memory.write (Machine.mem m2) 3000 77;
  Alcotest.(check bool) "poke detected" false
    (Snapshot.verify m2 ~expected_root:s.Snapshot.root)

let test_snapshot_empty_chain () =
  Alcotest.check_raises "empty" (Invalid_argument "Snapshot.materialize: empty chain")
    (fun () -> ignore (Snapshot.materialize ~mem_words:64 ~image:[||] []))

(* The leaf-hash cache against its oracle: after any interleaving of
   the ways memory changes hands or contents, the cached root equals a
   tree built from freshly serialized pages, and each take ships
   exactly the pages written since the previous take. *)
type mem_op =
  | Write of int * int
  | Set_page of int * int (* page, byte pattern seed *)
  | Load_image of int * int (* words, seed *)
  | Copy (* continue on a copy; scribble on the original *)
  | Take
  | Materialize of bool (* from the snapshots so far; through encode/decode? *)
  | Root

let prop_leaf_cache_matches_oracle =
  let pages = 6 in
  let words = pages * Memory.page_size in
  let image = [| 7; 8; 9 |] in
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (6, map2 (fun a v -> Write (a, v)) (int_bound (words - 1)) int);
        (1, map2 (fun p s -> Set_page (p, s)) (int_bound (pages - 1)) (int_bound 255));
        (1, map2 (fun n s -> Load_image (n, s)) (int_bound words) int);
        (1, pure Copy);
        (2, pure Take);
        (1, map (fun b -> Materialize b) bool);
        (2, pure Root);
      ]
  in
  let print = function
    | Write (a, v) -> Printf.sprintf "Write(%d,%d)" a v
    | Set_page (p, s) -> Printf.sprintf "Set_page(%d,%d)" p s
    | Load_image (n, s) -> Printf.sprintf "Load_image(%d,%d)" n s
    | Copy -> "Copy"
    | Take -> "Take"
    | Materialize b -> Printf.sprintf "Materialize(%b)" b
    | Root -> "Root"
  in
  let oracle m =
    let mem = Machine.mem m in
    Avm_crypto.Merkle.root
      (Avm_crypto.Merkle.of_leaves (List.init (Memory.page_count mem) (Memory.page_data mem)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"leaf cache: cached root = from-scratch root"
       ~print:QCheck2.Print.(list print)
       (list_size (int_bound 40) op)
       (fun ops ->
         let m = ref (Machine.create ~mem_words:words image) in
         let tr = ref (Snapshot.tracker ()) in
         let snaps = ref [] (* newest first *) in
         let written = Array.make pages false in
         let root_ok () = String.equal (Memory.root (Machine.mem !m)) (oracle !m) in
         let step = function
           | Write (a, v) ->
             Memory.write (Machine.mem !m) a v;
             written.(a / Memory.page_size) <- true;
             true
           | Set_page (p, s) ->
             Memory.set_page_data (Machine.mem !m) p
               (String.init (Memory.page_size * 4) (fun i -> Char.chr ((s + (i * 31)) land 0xff)));
             written.(p) <- true;
             true
           | Load_image (n, s) ->
             Memory.load_image (Machine.mem !m) (Array.init n (fun i -> s * (i + 1)));
             for p = 0 to ((n + Memory.page_size - 1) / Memory.page_size) - 1 do
               written.(p) <- true
             done;
             true
           | Copy ->
             let c = Machine.copy !m in
             Memory.write (Machine.mem !m) 0 0xdead;
             m := c;
             true
           | Take ->
             let expected =
               if !snaps = [] then List.init pages Fun.id
               else List.filter (fun p -> written.(p)) (List.init pages Fun.id)
             in
             let s = Snapshot.take !tr !m in
             Array.fill written 0 pages false;
             snaps := s :: !snaps;
             List.map (fun (pg : Snapshot.page) -> pg.index) s.Snapshot.pages = expected
             && String.equal s.Snapshot.root (oracle !m)
             && List.for_all
                  (fun (pg : Snapshot.page) ->
                    String.equal pg.data (Memory.page_data (Machine.mem !m) pg.index)
                    && String.equal pg.leaf (Avm_crypto.Merkle.leaf_hash pg.data))
                  s.Snapshot.pages
           | Materialize wire -> (
             match !snaps with
             | [] -> true
             | last :: _ ->
               let chain = List.rev !snaps in
               let chain =
                 if wire then List.map (fun s -> Snapshot.decode (Snapshot.encode s)) chain
                 else chain
               in
               m := Result.get_ok (Snapshot.materialize ~mem_words:words ~image chain);
               tr := Snapshot.tracker ();
               snaps := [];
               (* No cached-root check here: computing it advances the
                  clock and would hide an install that fails to. *)
               String.equal (oracle !m) last.Snapshot.root)
           | Root -> root_ok ()
         in
         List.for_all step ops && root_ok ()))

(* The interior-node cache against [Merkle.of_leaf_hashes] over leaf
   hashes computed from scratch: memories of 1..13 pages (odd widths
   promote nodes), rounds of random writes, a root after each round,
   and sometimes a restore into another machine ([Machine.copy
   ~into]) before the next round. *)
let prop_node_cache_matches_scratch_root =
  let open QCheck2.Gen in
  let gen =
    int_range 1 13 >>= fun pages ->
    let words = pages * Memory.page_size in
    let round = pair bool (list_size (int_bound 6) (pair (int_bound (words - 1)) int)) in
    map (fun rounds -> (pages, rounds)) (list_size (int_range 1 8) round)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"node cache: cached root = Merkle.of_leaf_hashes"
       ~print:(fun (pages, rounds) ->
         Printf.sprintf "%d pages, %d rounds" pages (List.length rounds))
       gen
       (fun (pages, rounds) ->
         let words = pages * Memory.page_size in
         let scratch_root m =
           let mem = Machine.mem m in
           Avm_crypto.Merkle.root
             (Avm_crypto.Merkle.of_leaf_hashes
                (List.init pages (fun p -> Avm_crypto.Merkle.leaf_hash (Memory.page_data mem p))))
         in
         let m = ref (Machine.create ~mem_words:words [| 1; 2; 3 |]) in
         let spare = ref (Machine.create ~mem_words:words [||]) in
         List.for_all
           (fun (restore, writes) ->
             if restore then begin
               let c = Machine.copy ~into:!spare !m in
               spare := !m;
               m := c
             end;
             List.iter (fun (a, v) -> Memory.write (Machine.mem !m) a v) writes;
             String.equal (Memory.root (Machine.mem !m)) (scratch_root !m))
           rounds))

let prop_event_roundtrip =
  let open QCheck2.Gen in
  let gen =
    oneof
      [
        map3
          (fun port value msg -> Event.Io_in { port; value; msg })
          (int_range 0 0xffff) (int_range 0 0xffffffff) (int_range (-1) 1000);
        map3
          (fun icount pc branches ->
            Event.Irq { landmark = { Landmark.icount; pc; branches }; line = icount mod 4 })
          (int_range 0 1_000_000) (int_range 0 0xffff) (int_range 0 100_000);
      ]
  in
  qtest "event: wire roundtrip" gen (fun ev -> Event.equal (Event.decode (Event.encode ev)) ev)

(* --- The reference interpreter --------------------------------------------- *)

(* The interpreter the word kernel replaced, kept as its oracle: it
   decodes each word with [Isa.decode], polls before every
   instruction and executes the decoded variant. Faults carry the
   kernel's reasons. [to_machine] serializes its state in
   [Machine.serialize_meta]'s layout, so its end state compares with a
   machine's through [Machine.state_equal]. *)
module Oracle = struct
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
    mutable tx : int list; (* reversed *)
    mutable frames : int;
    mutable console_chars : int;
    disk : (int, int array) Hashtbl.t;
    mutable disk_sector : int;
    mutable disk_word : int;
  }

  let mask32 = 0xffffffff
  let sector_words = 256

  let create ~mem_words words =
    let mem = Memory.create ~words:mem_words in
    Memory.load_image mem words;
    {
      regs = Array.make 16 0; pc = 0; icount = 0; branches = 0; mem; halted = false;
      int_enabled = false; in_handler = false; saved_pc = 0; ivt = 0; last_irq = 0; tx = [];
      frames = 0; console_chars = 0; disk = Hashtbl.create 4; disk_sector = 0; disk_word = 0;
    }

  let landmark t = { Landmark.icount = t.icount; pc = t.pc; branches = t.branches }

  let fault t reason =
    t.halted <- true;
    raise (Machine.Runtime_fault { pc = t.pc; reason })

  let s v = if v land 0x80000000 <> 0 then v - 0x100000000 else v
  let r t i = t.regs.(i)
  let set t i v = t.regs.(i) <- v land mask32

  let sector t =
    match Hashtbl.find_opt t.disk t.disk_sector with
    | Some a -> a
    | None ->
      let a = Array.make sector_words 0 in
      Hashtbl.replace t.disk t.disk_sector a;
      a

  let next_word t = t.disk_word <- (t.disk_word + 1) land (sector_words - 1)

  let handle_in t (b : Machine.backend) port =
    if port = Isa.port_disk_read then begin
      let v = (sector t).(t.disk_word) in
      next_word t;
      v
    end
    else if port = Isa.port_irq_cause then t.last_irq
    else b.io_in port land mask32

  let handle_out t (b : Machine.backend) port v =
    if port = Isa.port_console then begin
      t.console_chars <- t.console_chars + 1;
      b.observe (Machine.Console v)
    end
    else if port = Isa.port_frame then begin
      t.frames <- t.frames + 1;
      b.observe Machine.Frame
    end
    else if port = Isa.port_net_tx then t.tx <- v :: t.tx
    else if port = Isa.port_net_tx_send then begin
      let packet = Array.of_list (List.rev t.tx) in
      t.tx <- [];
      b.observe (Machine.Packet_sent packet)
    end
    else if port = Isa.port_disk_sector then t.disk_sector <- v
    else if port = Isa.port_disk_word then t.disk_word <- v land (sector_words - 1)
    else if port = Isa.port_disk_write then begin
      (sector t).(t.disk_word) <- v;
      next_word t
    end
    else if port = Isa.port_ivt then t.ivt <- v
    else b.io_out port v

  let load t a =
    try Memory.read t.mem a with Memory.Fault a -> fault t (Printf.sprintf "load fault at 0x%x" a)

  let store t a v =
    try Memory.write t.mem a v
    with Memory.Fault a -> fault t (Printf.sprintf "store fault at 0x%x" a)

  let jump t target =
    t.branches <- t.branches + 1;
    t.pc <- target land mask32

  let exec t b i =
    t.icount <- t.icount + 1;
    let next = t.pc + 1 in
    let alu d v =
      set t d v;
      t.pc <- next
    in
    let branch cond off = if cond then jump t (next + off) else t.pc <- next in
    match i with
    | Isa.Halt ->
      t.halted <- true;
      t.pc <- next
    | Isa.Nop -> t.pc <- next
    | Isa.Ei ->
      t.int_enabled <- true;
      t.pc <- next
    | Isa.Di ->
      t.int_enabled <- false;
      t.pc <- next
    | Isa.Iret ->
      t.in_handler <- false;
      t.int_enabled <- true;
      t.pc <- t.saved_pc
    | Isa.Mov (d, a) -> alu d (r t a)
    | Isa.Movi (d, v) -> alu d v
    | Isa.Lui (d, v) -> alu d (v lsl 16)
    | Isa.Add (d, a, c) -> alu d (r t a + r t c)
    | Isa.Sub (d, a, c) -> alu d (r t a - r t c)
    | Isa.Mul (d, a, c) -> alu d (r t a * r t c)
    | Isa.Div (d, a, c) -> alu d (if r t c = 0 then 0 else s (r t a) / s (r t c))
    | Isa.Rem (d, a, c) -> alu d (if r t c = 0 then 0 else s (r t a) mod s (r t c))
    | Isa.And (d, a, c) -> alu d (r t a land r t c)
    | Isa.Or (d, a, c) -> alu d (r t a lor r t c)
    | Isa.Xor (d, a, c) -> alu d (r t a lxor r t c)
    | Isa.Shl (d, a, c) -> alu d (r t a lsl (r t c land 31))
    | Isa.Shr (d, a, c) -> alu d (r t a lsr (r t c land 31))
    | Isa.Sar (d, a, c) -> alu d (s (r t a) asr (r t c land 31))
    | Isa.Slt (d, a, c) -> alu d (if s (r t a) < s (r t c) then 1 else 0)
    | Isa.Sltu (d, a, c) -> alu d (if r t a < r t c then 1 else 0)
    | Isa.Seq (d, a, c) -> alu d (if r t a = r t c then 1 else 0)
    | Isa.Addi (d, a, v) -> alu d (r t a + v)
    | Isa.Andi (d, a, v) -> alu d (r t a land v)
    | Isa.Ori (d, a, v) -> alu d (r t a lor v)
    | Isa.Xori (d, a, v) -> alu d (r t a lxor v)
    | Isa.Shli (d, a, v) -> alu d (r t a lsl v)
    | Isa.Shri (d, a, v) -> alu d (r t a lsr v)
    | Isa.Sari (d, a, v) -> alu d (s (r t a) asr v)
    | Isa.Load (d, a, off) -> alu d (load t (r t a + off))
    | Isa.Store (v, a, off) ->
      store t (r t a + off) (r t v);
      t.pc <- next
    | Isa.Jmp off -> jump t (next + off)
    | Isa.Jal (d, off) ->
      set t d next;
      jump t (next + off)
    | Isa.Jr a -> jump t (r t a)
    | Isa.Jalr (d, a) ->
      let target = r t a in
      set t d next;
      jump t target
    | Isa.Beq (a, c, off) -> branch (r t a = r t c) off
    | Isa.Bne (a, c, off) -> branch (r t a <> r t c) off
    | Isa.Blt (a, c, off) -> branch (s (r t a) < s (r t c)) off
    | Isa.Bge (a, c, off) -> branch (s (r t a) >= s (r t c)) off
    | Isa.Bltu (a, c, off) -> branch (r t a < r t c) off
    | Isa.Bgeu (a, c, off) -> branch (r t a >= r t c) off
    | Isa.In (d, port) -> alu d (handle_in t b port)
    | Isa.Out (a, port) ->
      handle_out t b port (r t a);
      t.pc <- next

  (* One poll and one instruction, as [Machine.step] does; [tracer]
     sees the decoded instruction before it runs. *)
  let step ?(tracer = fun _ -> ()) t (b : Machine.backend) =
    if not t.halted then begin
      if t.int_enabled && not t.in_handler then begin
        match b.poll_irq () with
        | Some line ->
          t.saved_pc <- t.pc;
          t.pc <- t.ivt;
          t.in_handler <- true;
          t.int_enabled <- false;
          t.last_irq <- line
        | None -> ()
      end;
      let word =
        try Memory.read t.mem t.pc
        with Memory.Fault a -> fault t (Printf.sprintf "pc out of range: 0x%x" a)
      in
      let i =
        try Isa.decode word
        with Isa.Decode_error w -> fault t (Printf.sprintf "bad opcode 0x%08x" w)
      in
      tracer i;
      exec t b i
    end

  let run ?tracer t b ~fuel =
    let executed = ref 0 in
    while (not t.halted) && !executed < fuel do
      step ?tracer t b;
      incr executed
    done

  (* [Machine.serialize_meta]'s layout. *)
  let meta t =
    let open Avm_util in
    let w = Wire.writer () in
    Array.iter (Wire.u32 w) t.regs;
    List.iter (Wire.varint w) [ t.pc; t.icount; t.branches ];
    List.iter (Wire.bool w) [ t.halted; t.int_enabled; t.in_handler ];
    List.iter (Wire.varint w) [ t.saved_pc; t.ivt; t.last_irq ];
    Wire.list w Wire.u32 (List.rev t.tx);
    List.iter (Wire.varint w) [ t.frames; t.console_chars; t.disk_sector; t.disk_word ];
    Wire.list w
      (fun w (n, data) ->
        Wire.varint w n;
        Array.iter (Wire.u32 w) data)
      (List.sort compare (Hashtbl.fold (fun n data acc -> (n, data) :: acc) t.disk []));
    Wire.contents w

  let to_machine t =
    let m = Machine.create ~mem_words:(Memory.size t.mem) [||] in
    Machine.restore_meta m (meta t);
    for a = 0 to Memory.size t.mem - 1 do
      Memory.write (Machine.mem m) a (Memory.read t.mem a)
    done;
    m
end

let check_same_machine what expected got =
  Alcotest.(check string) (what ^ ": meta") (Machine.serialize_meta expected)
    (Machine.serialize_meta got);
  Alcotest.(check bool) (what ^ ": memory") true (Machine.state_equal expected got)

let catch_fault f =
  try
    f ();
    None
  with Machine.Runtime_fault { pc; reason } -> Some (pc, reason)

(* --- Word kernel ≡ reference interpreter ----------------------------------- *)

(* Random AVM-32 programs run on the oracle, which polls before every
   instruction, and on the machine twice with no tracer: through
   [Machine.run], and as "one [step], then [run_until] the next
   scheduled interrupt, if one can be taken". Then the oracle and the
   kernel-driven machine run again with a tracer (the traced path).
   The backend fires interrupts at scripted icounts and logs every call
   with the landmark it was made at, as a memory watch hook logs every
   store; the logs, the final state and any fault must be identical.
   Words include undefined opcodes and random bits in the fields an
   instruction ignores. *)
type kernel_case = { words : int array; irqs : int list; fuel : int }

(* The bits of [i]'s encoding that [Isa.decode] ignores, or (for the
   shift-immediates) masks off. *)
let unused_bits = function
  | Isa.Halt | Isa.Nop | Isa.Ei | Isa.Di | Isa.Iret -> 0xffffff
  | Isa.Mov _ | Isa.Jalr _ -> 0xffff
  | Isa.Movi _ | Isa.Lui _ | Isa.Jal _ | Isa.In _ -> 0xf0000
  | Isa.Add _ | Isa.Sub _ | Isa.Mul _ | Isa.Div _ | Isa.Rem _ | Isa.And _ | Isa.Or _
  | Isa.Xor _ | Isa.Shl _ | Isa.Shr _ | Isa.Sar _ | Isa.Slt _ | Isa.Sltu _ | Isa.Seq _ ->
    0xfff0
  | Isa.Shli _ | Isa.Shri _ | Isa.Sari _ -> 0xffe0
  | Isa.Jmp _ -> 0xff0000
  | Isa.Jr _ -> 0xf0ffff
  | Isa.Out _ -> 0xf00000
  | Isa.Addi _ | Isa.Andi _ | Isa.Ori _ | Isa.Xori _ | Isa.Load _ | Isa.Store _ | Isa.Beq _
  | Isa.Bne _ | Isa.Blt _ | Isa.Bge _ | Isa.Bltu _ | Isa.Bgeu _ ->
    0

let gen_kernel_case =
  let open QCheck2.Gen in
  let reg = int_range 0 7 in
  let rrr f = map3 f reg reg reg in
  let off = int_range (-6) 6 in
  let imm16 = int_range (-0x8000) 0x7fff and uimm16 = int_bound 0xffff in
  let shift = int_bound 31 in
  let port l = oneofl l in
  let backend_in = port Isa.[ port_clock; port_rng; port_input; port_net_rx; 0x99 ] in
  let internal_in = port Isa.[ port_disk_read; port_irq_cause ] in
  let backend_out =
    port Isa.[ port_console; port_frame; port_net_tx_send; port_timer_ctl; port_net_rx_next; 0x9a ]
  in
  let internal_out =
    port Isa.[ port_net_tx; port_disk_sector; port_disk_word; port_disk_write; port_ivt ]
  in
  let instr =
    frequency
      [
        (2, rrr (fun d a b -> Isa.Add (d, a, b)));
        (1, rrr (fun d a b -> Isa.Sub (d, a, b)));
        (1, rrr (fun d a b -> Isa.Mul (d, a, b)));
        (1, rrr (fun d a b -> Isa.Div (d, a, b)));
        (1, rrr (fun d a b -> Isa.Rem (d, a, b)));
        (1, rrr (fun d a b -> Isa.Xor (d, a, b)));
        (1, rrr (fun d a b -> Isa.Sar (d, a, b)));
        (1, rrr (fun d a b -> Isa.Slt (d, a, b)));
        (1, rrr (fun d a b -> Isa.Sltu (d, a, b)));
        (1, rrr (fun d a b -> Isa.And (d, a, b)));
        (1, rrr (fun d a b -> Isa.Or (d, a, b)));
        (1, rrr (fun d a b -> Isa.Shl (d, a, b)));
        (1, rrr (fun d a b -> Isa.Shr (d, a, b)));
        (1, rrr (fun d a b -> Isa.Seq (d, a, b)));
        (1, map2 (fun d a -> Isa.Mov (d, a)) reg reg);
        (3, map2 (fun d v -> Isa.Movi (d, v)) reg (int_range (-4) 40));
        (1, map2 (fun d v -> Isa.Movi (d, v)) reg imm16);
        (1, map2 (fun d v -> Isa.Lui (d, v)) reg uimm16);
        (1, map3 (fun d a v -> Isa.Addi (d, a, v)) reg reg (int_range (-8) 8));
        (1, map3 (fun d a v -> Isa.Addi (d, a, v)) reg reg imm16);
        (1, map3 (fun d a v -> Isa.Andi (d, a, v)) reg reg uimm16);
        (1, map3 (fun d a v -> Isa.Ori (d, a, v)) reg reg uimm16);
        (1, map3 (fun d a v -> Isa.Xori (d, a, v)) reg reg uimm16);
        (1, map3 (fun d a v -> Isa.Shli (d, a, v)) reg reg shift);
        (1, map3 (fun d a v -> Isa.Shri (d, a, v)) reg reg shift);
        (1, map3 (fun d a v -> Isa.Sari (d, a, v)) reg reg shift);
        (* Memory is 256 words: some accesses fault. *)
        (2, map3 (fun d a v -> Isa.Load (d, a, v)) reg reg (int_range (-2) 280));
        (2, map3 (fun d a v -> Isa.Store (d, a, v)) reg reg (int_range (-2) 280));
        (1, map (fun o -> Isa.Jmp o) off);
        (1, map2 (fun d o -> Isa.Jal (d, o)) reg off);
        (1, map (fun a -> Isa.Jr a) reg);
        (1, map2 (fun d a -> Isa.Jalr (d, a)) reg reg);
        (1, map3 (fun a b o -> Isa.Beq (a, b, o)) reg reg off);
        (1, map3 (fun a b o -> Isa.Bne (a, b, o)) reg reg off);
        (1, map3 (fun a b o -> Isa.Blt (a, b, o)) reg reg off);
        (1, map3 (fun a b o -> Isa.Bge (a, b, o)) reg reg off);
        (1, map3 (fun a b o -> Isa.Bltu (a, b, o)) reg reg off);
        (1, map3 (fun a b o -> Isa.Bgeu (a, b, o)) reg reg off);
        (1, pure Isa.Nop);
        (2, pure Isa.Ei);
        (1, pure Isa.Di);
        (2, pure Isa.Iret);
        (2, map2 (fun d p -> Isa.In (d, p)) reg backend_in);
        (1, map2 (fun d p -> Isa.In (d, p)) reg internal_in);
        (2, map2 (fun s p -> Isa.Out (s, p)) reg backend_out);
        (2, map2 (fun s p -> Isa.Out (s, p)) reg internal_out);
      ]
  in
  let word =
    frequency
      [
        ( 60,
          map2
            (fun i junk -> Isa.encode i lor (junk land unused_bits i))
            instr (int_bound 0xffffff) );
        (1, pure (Isa.encode Isa.Halt));
        (1, pure 0xff000000 (* undefined opcode *));
        (* Any opcode byte, most of them undefined, and any fields. *)
        (2, map2 (fun op low -> (op lsl 24) lor low) (int_range 0 255) (int_bound 0xffffff));
      ]
  in
  map3
    (fun words irqs fuel ->
      { words = Array.of_list words; irqs = List.sort_uniq compare irqs; fuel })
    (list_size (int_range 1 48) word)
    (list_size (int_bound 30) (int_bound 600))
    (int_range 0 800)

let print_kernel_case c =
  Printf.sprintf "fuel=%d irqs=[%s]\n%s" c.fuel
    (String.concat ";" (List.map string_of_int c.irqs))
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun w ->
               Printf.sprintf "%08x %s" w
                 (try Isa.to_string (Isa.decode w) with Isa.Decode_error _ -> "<bad>"))
             c.words)))

(* One execution in [mode]: the call log (newest first), the final
   state as a machine, the fault. *)
let run_kernel_case ~traced mode c =
  let m = Machine.create ~mem_words:256 c.words in
  let o = Oracle.create ~mem_words:256 c.words in
  let at () = if mode = `Oracle then Oracle.landmark o else Machine.landmark m in
  let log = ref [] in
  let note s = log := Printf.sprintf "%s %s" (Landmark.to_string (at ())) s :: !log in
  let pending = ref c.irqs in
  let inputs = ref 0 in
  let backend =
    {
      Machine.io_in =
        (fun port ->
          incr inputs;
          note (Printf.sprintf "in %d" port);
          (!inputs * 2654435761) + port);
      io_out = (fun port v -> note (Printf.sprintf "out %d %d" port v));
      observe =
        (fun o ->
          note
            (match o with
            | Machine.Console v -> Printf.sprintf "console %d" v
            | Machine.Frame -> "frame"
            | Machine.Packet_sent p ->
              "packet " ^ String.concat "," (Array.to_list (Array.map string_of_int p))));
      poll_irq =
        (fun () ->
          let now = (at ()).Landmark.icount in
          if List.mem now !pending then begin
            pending := List.filter (( <> ) now) !pending;
            note "irq";
            Some (now land 3)
          end
          else None);
    }
  in
  let tracer i = note (Isa.to_string i) in
  if traced then Machine.set_tracer m (Some (fun _ i -> tracer i));
  (* Memory watch hooks see the landmark mid-instruction. *)
  List.iter
    (fun mem ->
      Memory.set_watch mem
        (Some (fun a ~old ~value -> note (Printf.sprintf "write %d %d->%d" a old value))))
    [ Machine.mem m; o.Oracle.mem ];
  let next_irq () =
    let now = Machine.icount m in
    List.fold_left (fun acc at -> if at >= now then min acc at else acc) max_int !pending
  in
  let fault =
    catch_fault (fun () ->
        match mode with
        | `Oracle ->
          Oracle.run ?tracer:(if traced then Some tracer else None) o backend ~fuel:c.fuel
        | `Run -> ignore (Machine.run m backend ~fuel:c.fuel)
        | `Kernel ->
          while (not (Machine.halted m)) && Machine.icount m < c.fuel do
            ignore (Machine.step m backend);
            (* As the AVMM does: a masked interrupt bounds nothing, since
               only a stop can unmask it. *)
            let irq = if Machine.irq_deliverable m then next_irq () else max_int in
            Machine.run_until m backend ~limit:(min c.fuel irq)
          done)
  in
  (!log, (if mode = `Oracle then Oracle.to_machine o else m), fault)

let prop_kernel_matches_stepping =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |])
    (QCheck2.Test.make ~count:500 ~name:"run_until kernel = per-instruction run"
       ~print:print_kernel_case gen_kernel_case (fun c ->
         let same (log_r, m_r, fault_r) (log, m, fault) =
           log_r = log
           && String.equal (Machine.serialize_meta m_r) (Machine.serialize_meta m)
           && Machine.state_equal m_r m && fault_r = fault
         in
         let reference = run_kernel_case ~traced:false `Oracle c in
         same reference (run_kernel_case ~traced:false `Run c)
         && same reference (run_kernel_case ~traced:false `Kernel c)
         && same
              (run_kernel_case ~traced:true `Oracle c)
              (run_kernel_case ~traced:true `Kernel c)))

let test_run_until_stops () =
  (* The stop rules one at a time: the limit, a backend call, Ei, halt;
     in-machine ports run through. *)
  let m =
    Machine.create ~mem_words:64
      (image
         [
           Isa.Nop; Isa.Out (1, Isa.port_disk_sector); Isa.In (2, Isa.port_irq_cause);
           Isa.Nop; Isa.In (3, Isa.port_clock); Isa.Nop; Isa.Ei; Isa.Nop; Isa.Halt;
         ])
  in
  let polls = ref 0 in
  let backend = { Machine.null_backend with poll_irq = (fun () -> incr polls; None) } in
  let stop limit = Machine.run_until m backend ~limit; Machine.icount m in
  Alcotest.(check int) "limit" 1 (stop 1);
  Alcotest.(check int) "limit already reached" 1 (stop 0);
  Alcotest.(check int) "after the backend input" 5 (stop max_int);
  Alcotest.(check int) "after ei" 7 (stop max_int);
  Alcotest.(check int) "at halt" 9 (stop max_int);
  Alcotest.(check bool) "halted" true (Machine.halted m);
  Alcotest.(check int) "halted: no progress" 9 (stop max_int);
  Alcotest.(check int) "never polled" 0 !polls

(* --- The kernel against the oracle, case by case --------------------------- *)

(* Two loops with different code at the same addresses. *)
let loop_a =
  [
    Isa.Movi (1, 0); Isa.Addi (1, 1, 3); Isa.Mul (2, 1, 1); Isa.Andi (3, 1, 63);
    Isa.Store (2, 3, 200); Isa.Jmp (-5);
  ]

let loop_b =
  [
    Isa.Movi (1, 7); Isa.Shli (2, 1, 2); Isa.Sub (1, 2, 1); Isa.Andi (4, 1, 127);
    Isa.Store (1, 4, 300); Isa.Add (5, 5, 4); Isa.Jmp (-6);
  ]

let marks_string marks = String.concat " " (List.rev_map Landmark.to_string marks)

(* [slices] runs of [slice] instructions on the oracle: the landmark
   after each, and the end state. *)
let reference_slices ~mem_words ~slice ~slices instrs =
  let o = Oracle.create ~mem_words (image instrs) in
  let marks = ref [] in
  for _ = 1 to slices do
    Oracle.run o Machine.null_backend ~fuel:slice;
    marks := Oracle.landmark o :: !marks
  done;
  (!marks, Oracle.to_machine o)

let test_kernel_machines_alternate () =
  let slice = 37 and slices = 60 in
  let ref_a, end_a = reference_slices ~mem_words:1024 ~slice ~slices loop_a in
  let ref_b, end_b = reference_slices ~mem_words:1024 ~slice ~slices loop_b in
  let ma = Machine.create ~mem_words:1024 (image loop_a) in
  let mb = Machine.create ~mem_words:1024 (image loop_b) in
  let marks_a = ref [] and marks_b = ref [] in
  for _ = 1 to slices do
    List.iter
      (fun (m, marks) ->
        Machine.run_until m Machine.null_backend ~limit:(Machine.icount m + slice);
        marks := Machine.landmark m :: !marks)
      [ (ma, marks_a); (mb, marks_b) ]
  done;
  Alcotest.(check string) "a: landmarks" (marks_string ref_a) (marks_string !marks_a);
  Alcotest.(check string) "b: landmarks" (marks_string ref_b) (marks_string !marks_b);
  check_same_machine "a" end_a ma;
  check_same_machine "b" end_b mb

(* The ways to run a machine until it halts or faults. *)
let modes =
  [
    ( "step",
      fun m ->
        let n = ref 0 in
        while !n < 100_000 && Machine.step m Machine.null_backend do
          incr n
        done );
    ("run", fun m -> ignore (Machine.run m Machine.null_backend ~fuel:100_000));
    ("run_until", fun m -> Machine.run_until m Machine.null_backend ~limit:max_int);
  ]

(* Runs [prog] on the oracle and in every mode; the faults and
   the end states must agree. *)
let check_modes ?(mem_words = 4096) ?(check = fun _ _ -> ()) what prog =
  let o = Oracle.create ~mem_words (image prog) in
  let fault = catch_fault (fun () -> Oracle.run o Machine.null_backend ~fuel:100_000) in
  let expected = Oracle.to_machine o in
  check (what ^ " reference") expected;
  List.iter
    (fun (name, drive) ->
      let what = what ^ " " ^ name in
      let m = Machine.create ~mem_words (image prog) in
      Alcotest.(check (option (pair int string)))
        (what ^ ": fault") fault
        (catch_fault (fun () -> drive m));
      check what m;
      check_same_machine what expected m)
    modes

let test_kernel_self_modifying () =
  (* The second pass stores [Movi (2, 42)] over the instruction right
     after the store, which the first pass has already executed as
     [Movi (2, 1)]. *)
  let prog =
    [
      Isa.Load (5, 0, 10); Isa.Movi (4, 2); Isa.Addi (3, 3, 1); Isa.Bne (3, 4, 1);
      Isa.Store (5, 0, 5); Isa.Movi (2, 1); Isa.Add (7, 7, 2); Isa.Blt (3, 4, -6); Isa.Halt;
      Isa.Nop; Isa.Movi (2, 42);
    ]
  in
  check_modes "store over" prog ~check:(fun what m ->
      Alcotest.(check bool) (what ^ ": halted") true (Machine.halted m);
      Alcotest.(check int) (what ^ ": new word ran") 42 (Machine.reg m 2);
      Alcotest.(check int) (what ^ ": old word ran first") 43 (Machine.reg m 7))

let test_kernel_two_domains () =
  let work mem_words instrs =
    let m = Machine.create ~mem_words (image instrs) in
    while Machine.icount m < 200_000 do
      Machine.run_until m Machine.null_backend ~limit:(Machine.icount m + 997);
      ignore (Machine.step m Machine.null_backend)
    done;
    m
  in
  let seq_a = work 1024 loop_a and seq_b = work 4096 loop_b in
  let da = Domain.spawn (fun () -> work 1024 loop_a) in
  let db = Domain.spawn (fun () -> work 4096 loop_b) in
  let par_a = Domain.join da and par_b = Domain.join db in
  check_same_machine "a" seq_a par_a;
  check_same_machine "b" seq_b par_b

let test_kernel_faults () =
  (* Each program takes two branches, then faults: the fault, pc,
     icount, branch count and the rest of the state must be the
     oracle's. *)
  let faulting last = [ Isa.Movi (3, 3); Isa.Addi (3, 3, -1); Isa.Bne (3, 0, -2) ] @ last in
  let cases =
    [
      ("load past the end", faulting [ Isa.Movi (1, 200); Isa.Load (2, 1, 100) ]);
      ("load below zero", faulting [ Isa.Load (2, 0, -1) ]);
      ("store past the end", faulting [ Isa.Movi (1, 200); Isa.Store (2, 1, 56) ]);
      ("pc out of range", faulting [ Isa.Jmp 300 ]);
      ("jr out of range", faulting [ Isa.Lui (1, 0xffff); Isa.Jr 1 ]);
    ]
  in
  List.iter (fun (what, prog) -> check_modes ~mem_words:256 what prog) cases;
  let undefined = Array.append (image (faulting [ Isa.Movi (1, 5) ])) [| 0x0800_1234 |] in
  let o = Oracle.create ~mem_words:256 undefined in
  let fault = catch_fault (fun () -> Oracle.run o Machine.null_backend ~fuel:100) in
  Alcotest.(check bool) "undefined opcode faults" true (fault <> None);
  List.iter
    (fun (name, drive) ->
      let m = Machine.create ~mem_words:256 undefined in
      Alcotest.(check (option (pair int string)))
        ("undefined opcode " ^ name) fault
        (catch_fault (fun () -> drive m));
      check_same_machine ("undefined opcode " ^ name) (Oracle.to_machine o) m)
    modes

let test_kernel_nested () =
  (* A tracer on one machine runs a second machine in the middle of the
     first's [run_until]: the untraced kernel nests inside the traced
     path, and each machine must end where the oracle does. *)
  let _, outer_ref = reference_slices ~mem_words:512 ~slice:300 ~slices:1 loop_a in
  let _, inner_ref = reference_slices ~mem_words:16384 ~slice:100 ~slices:1 loop_b in
  let outer = Machine.create ~mem_words:512 (image loop_a) in
  let inner = ref None in
  Machine.set_tracer outer
    (Some
       (fun m _ ->
         if Machine.icount m = 50 then begin
           Alcotest.(check bool) "one nested run" true (!inner = None);
           let i = Machine.create ~mem_words:16384 (image loop_b) in
           Machine.run_until i Machine.null_backend ~limit:100;
           inner := Some i
         end));
  Machine.run_until outer Machine.null_backend ~limit:300;
  Machine.set_tracer outer None;
  check_same_machine "outer" outer_ref outer;
  match !inner with
  | Some i -> check_same_machine "inner" inner_ref i
  | None -> Alcotest.fail "the nested run never ran"

(* --- Partial state (paper §4.4 / §7.3) ------------------------------------- *)

let test_partial_state_verify () =
  let m = Machine.create ~mem_words:4096 (image counting_prog) in
  ignore (Machine.run m Machine.null_backend ~fuel:100);
  let tree = Memory.merkle (Machine.mem m) in
  let root = Avm_crypto.Merkle.root tree in
  let partial = Partial_state.extract m ~pages:[ 0; 3; 15 ] in
  Alcotest.(check int) "three pages" 3 (List.length partial.Partial_state.pages);
  Alcotest.(check bool) "verifies" true (Partial_state.verify partial ~expected_root:root);
  (* tampering a disclosed page is caught *)
  (match partial.Partial_state.pages with
  | p :: rest ->
    let bad = { p with Partial_state.data = String.map (fun _ -> 'z') p.Partial_state.data } in
    Alcotest.(check bool) "tampered page" false
      (Partial_state.verify { partial with Partial_state.pages = bad :: rest }
         ~expected_root:root)
  | [] -> Alcotest.fail "no pages");
  (* far smaller than the full state *)
  Alcotest.(check bool) "discloses less" true
    (Partial_state.disclosed_bytes partial < 4096 * 4 / 2);
  (* serialization round trip *)
  let partial2 = Partial_state.decode (Partial_state.encode partial) in
  Alcotest.(check bool) "roundtrip verifies" true
    (Partial_state.verify partial2 ~expected_root:root)

let test_partial_state_bad_indices_ignored () =
  let m = Machine.create ~mem_words:1024 (image counting_prog) in
  let partial = Partial_state.extract m ~pages:[ -1; 0; 0; 9999 ] in
  Alcotest.(check int) "deduped and clamped" 1 (List.length partial.Partial_state.pages)

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "32-bit masking" `Quick test_memory_mask32;
          Alcotest.test_case "dirty tracking" `Quick test_memory_dirty_tracking;
          Alcotest.test_case "page data roundtrip" `Quick test_memory_page_data_roundtrip;
          Alcotest.test_case "copy independence" `Quick test_memory_copy_independent;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "alu wraparound" `Quick test_alu_wrap;
          Alcotest.test_case "signed ops" `Quick test_signed_ops;
          Alcotest.test_case "shift masking" `Quick test_shift_by_register_masked;
          Alcotest.test_case "branch counter" `Quick test_branch_counter;
          Alcotest.test_case "landmark fields" `Quick test_landmark_fields;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "bad opcode faults" `Quick test_runtime_fault_bad_opcode;
          Alcotest.test_case "wild store faults" `Quick test_runtime_fault_wild_store;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "gating" `Quick test_interrupt_gating;
          Alcotest.test_case "delivery and iret" `Quick test_interrupt_flow;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "run_until stop rules" `Quick test_run_until_stops;
          prop_kernel_matches_stepping;
          Alcotest.test_case "two images alternate on one domain" `Quick
            test_kernel_machines_alternate;
          Alcotest.test_case "store over the next instruction" `Quick test_kernel_self_modifying;
          Alcotest.test_case "two domains at once" `Quick test_kernel_two_domains;
          Alcotest.test_case "faults leave the reference state" `Quick test_kernel_faults;
          Alcotest.test_case "nested run on a second machine" `Quick test_kernel_nested;
        ] );
      ( "devices",
        [
          Alcotest.test_case "disk readback" `Quick test_disk_readback;
          Alcotest.test_case "tx buffer flush" `Quick test_tx_buffer_flush;
          Alcotest.test_case "frames and console" `Quick test_frames_and_console;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical runs" `Quick test_determinism_same_backend;
          Alcotest.test_case "meta roundtrip" `Quick test_meta_roundtrip;
          Alcotest.test_case "meta garbage" `Quick test_meta_garbage;
          prop_event_roundtrip;
        ] );
      ( "partial-state",
        [
          Alcotest.test_case "extract/verify/tamper" `Quick test_partial_state_verify;
          Alcotest.test_case "bad indices" `Quick test_partial_state_bad_indices_ignored;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "incremental materialize" `Quick test_snapshot_incremental_materialize;
          Alcotest.test_case "incremental smaller" `Quick test_snapshot_incremental_smaller;
          Alcotest.test_case "encode/decode" `Quick test_snapshot_encode_decode;
          Alcotest.test_case "digest detects poke" `Quick test_snapshot_digest_detects_poke;
          Alcotest.test_case "empty chain" `Quick test_snapshot_empty_chain;
          prop_leaf_cache_matches_oracle;
          prop_node_cache_matches_scratch_root;
        ] );
    ]
