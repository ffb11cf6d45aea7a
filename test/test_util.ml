open Avm_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Wire ---------------------------------------------------------------- *)

let test_wire_ints () =
  let w = Wire.writer () in
  Wire.u8 w 0xab;
  Wire.u16 w 0xbeef;
  Wire.u32 w 0xdeadbeef;
  Wire.u64 w 0x1122334455667788L;
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check int) "u8" 0xab (Wire.read_u8 r);
  Alcotest.(check int) "u16" 0xbeef (Wire.read_u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Wire.read_u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Wire.read_u64 r);
  Wire.expect_end r

let test_wire_varint_edges () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.varint w v;
      let r = Wire.reader (Wire.contents w) in
      Alcotest.(check int) (string_of_int v) v (Wire.read_varint r);
      Wire.expect_end r)
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 30; max_int / 2 ]

(* Decoding accepts exactly what the writer produces: [max_int] is the
   largest 9-byte value, and non-minimal or wrapping spellings are
   malformed rather than silently aliased. *)
let test_wire_varint_canonical () =
  let w = Wire.writer () in
  Wire.varint w max_int;
  Alcotest.(check int) "max_int roundtrip" max_int
    (Wire.read_varint (Wire.reader (Wire.contents w)));
  List.iter
    (fun (name, bytes) ->
      match Wire.read_varint (Wire.reader bytes) with
      | v -> Alcotest.failf "%s decoded to %d" name v
      | exception Wire.Malformed _ -> ())
    [
      ("0 as 0x80 0x00", "\x80\x00");
      ("1 as 0x81 0x80 0x00", "\x81\x80\x00");
      ("above max_int", String.make 8 '\xff' ^ "\x7f");
      ("max_int + 1", String.make 8 '\x80' ^ "\x40");
      ("10 bytes", String.make 9 '\xff' ^ "\x01");
    ]

let test_wire_varint_negative () =
  let w = Wire.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Wire.varint: negative") (fun () ->
      Wire.varint w (-1))

let test_wire_truncated () =
  let r = Wire.reader "\x01" in
  ignore (Wire.read_u8 r);
  Alcotest.check_raises "past end" Wire.Truncated (fun () -> ignore (Wire.read_u8 r))

let test_wire_bytes_and_lists () =
  let w = Wire.writer () in
  Wire.bytes w "hello";
  Wire.list w (fun w v -> Wire.varint w v) [ 1; 2; 3 ];
  Wire.option w (fun w v -> Wire.bytes w v) (Some "x");
  Wire.option w (fun w v -> Wire.bytes w v) None;
  Wire.bool w true;
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check string) "bytes" "hello" (Wire.read_bytes r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.read_list r Wire.read_varint);
  Alcotest.(check (option string)) "some" (Some "x") (Wire.read_option r Wire.read_bytes);
  Alcotest.(check (option string)) "none" None (Wire.read_option r Wire.read_bytes);
  Alcotest.(check bool) "bool" true (Wire.read_bool r);
  Wire.expect_end r

let test_wire_trailing () =
  let r = Wire.reader "ab" in
  ignore (Wire.read_u8 r);
  Alcotest.check_raises "trailing" (Wire.Malformed "1 trailing bytes") (fun () ->
      Wire.expect_end r)

let test_wire_bad_list_count () =
  (* A huge count with no payload must not allocate/loop. *)
  let w = Wire.writer () in
  Wire.varint w 1_000_000;
  let r = Wire.reader (Wire.contents w) in
  Alcotest.check_raises "list" (Wire.Malformed "list count exceeds input") (fun () ->
      ignore (Wire.read_list r Wire.read_u8))

let prop_wire_string_roundtrip =
  qtest "wire: bytes roundtrip" QCheck2.Gen.string (fun s ->
      let w = Wire.writer () in
      Wire.bytes w s;
      let r = Wire.reader (Wire.contents w) in
      String.equal (Wire.read_bytes r) s && Wire.at_end r)

let prop_wire_u32_roundtrip =
  qtest "wire: u32 roundtrip"
    QCheck2.Gen.(int_range 0 0xffffffff)
    (fun v ->
      let w = Wire.writer () in
      Wire.u32 w v;
      Wire.read_u32 (Wire.reader (Wire.contents w)) = v)

let prop_wire_varint_roundtrip =
  qtest "wire: varint roundtrip" QCheck2.Gen.nat (fun v ->
      let w = Wire.writer () in
      Wire.varint w v;
      Wire.read_varint (Wire.reader (Wire.contents w)) = v)

let test_wire_endianness_pinned () =
  (* The wire format feeds hash preimages; its byte order must never
     change silently. *)
  let w = Wire.writer () in
  Wire.u16 w 0x1234;
  Wire.u32 w 0x9abcdef0;
  Alcotest.(check string) "little-endian" "\x34\x12\xf0\xde\xbc\x9a" (Wire.contents w)

let test_wire_u64_roundtrip_extremes () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.u64 w v;
      Alcotest.(check int64) "u64" v (Wire.read_u64 (Wire.reader (Wire.contents w))))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x0123456789abcdefL ]

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 99L in
  let c = Rng.split a in
  Alcotest.(check bool) "diverges" true (Rng.next_int64 a <> Rng.next_int64 c)

let prop_rng_int_bounds =
  qtest "rng: int within bounds"
    QCheck2.Gen.(pair (int_range 1 1000000) (int_range 0 10000))
    (fun (bound, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_int_in =
  qtest "rng: int_in inclusive"
    QCheck2.Gen.(pair (int_range (-50) 50) (int_range 0 1000))
    (fun (lo, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let hi = lo + 10 in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_bytes_len () =
  let rng = Rng.create 1L in
  Alcotest.(check int) "len" 17 (String.length (Rng.bytes rng 17))

let test_rng_exponential_positive () =
  let rng = Rng.create 3L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 5.0 >= 0.0)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 11L in
  for _ = 1 to 500 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_known_splitmix_stream () =
  (* Pin the stream so recorded experiments stay reproducible across
     refactors. *)
  let rng = Rng.create 0L in
  Alcotest.(check int64) "first" (-2152535657050944081L) (Rng.next_int64 rng)

(* --- Hex ------------------------------------------------------------------ *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "upper" "\xab" (Hex.decode "AB")

let prop_hex_roundtrip =
  qtest "hex: roundtrip" QCheck2.Gen.string (fun s -> String.equal (Hex.decode (Hex.encode s)) s)

let test_hex_bad () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: not a hex digit") (fun () ->
      ignore (Hex.decode "zz"))

(* --- Stats ----------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "median nan" true (Float.is_nan (Stats.median s))

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.stddev s)

let test_rate () =
  let r = Stats.rate () in
  Stats.tick r 0.0;
  Stats.tick r 1.0;
  Stats.tick r 2.0;
  Alcotest.(check (float 1e-9)) "per second" 1.5 (Stats.per_second r);
  let weighted = Stats.rate () in
  Stats.tick weighted ~weight:10.0 0.0;
  Stats.tick weighted ~weight:10.0 5.0;
  Alcotest.(check (float 1e-9)) "weighted" 4.0 (Stats.per_second weighted)

(* --- Tablefmt --------------------------------------------------------------- *)

let test_tablefmt_align () =
  let s = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ] ] in
  Alcotest.(check bool) "has rule" true (String.length s > 0 && String.contains s '-');
  (* every line has equal leading column width *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 4 (List.length lines)

let test_tablefmt_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Tablefmt.render: ragged row") (fun () ->
      ignore (Tablefmt.render ~header:[ "a" ] [ [ "x"; "y" ] ]))

let test_tablefmt_fixed () =
  Alcotest.(check string) "fixed" "1.50" (Tablefmt.fixed 1.5);
  Alcotest.(check string) "nan" "-" (Tablefmt.fixed Float.nan);
  Alcotest.(check string) "decimals" "1.500" (Tablefmt.fixed ~decimals:3 1.5);
  Alcotest.(check string) "mb" "2.00" (Tablefmt.mb (2.0 *. 1024.0 *. 1024.0))

(* --- Domain_pool ------------------------------------------------------------ *)

exception Boom of int

let test_pool_ordering () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 (fun i -> i) in
      Alcotest.(check (list int))
        "map_list keeps input order"
        (List.map (fun i -> i * i) xs)
        (Domain_pool.map_list pool (fun i -> i * i) xs);
      let arr = Array.init 37 (fun i -> i) in
      Alcotest.(check (array int))
        "map_array keeps input order"
        (Array.map (fun i -> i + 1) arr)
        (Domain_pool.map_array pool (fun i -> i + 1) arr))

let test_pool_exception () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      (* await re-raises the task's own exception *)
      let t = Domain_pool.submit pool (fun () -> raise (Boom 7)) in
      (match Domain_pool.await t with
      | _ -> Alcotest.fail "await should re-raise"
      | exception Boom 7 -> ());
      (* batch combinators settle everything, then re-raise the failure
         of the smallest job index *)
      match
        Domain_pool.run pool
          [
            (fun () -> 1);
            (fun () -> raise (Boom 1));
            (fun () -> raise (Boom 2));
            (fun () -> 4);
          ]
      with
      | _ -> Alcotest.fail "run should re-raise"
      | exception Boom 1 -> ())

let test_pool_reuse () =
  (* One pool across many submission rounds, including after a failed
     round. *)
  Domain_pool.with_pool ~jobs:2 (fun pool ->
      (try ignore (Domain_pool.run pool [ (fun () -> raise (Boom 0)) ]) with Boom 0 -> ());
      for round = 1 to 10 do
        let got = Domain_pool.map_list pool (fun i -> i * round) [ 1; 2; 3 ] in
        Alcotest.(check (list int)) "round result" [ round; 2 * round; 3 * round ] got
      done)

let test_pool_stress () =
  (* Far more tasks than workers: everything queues and completes. *)
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      let n = 500 in
      let total = Domain_pool.map_list pool (fun i -> i) (List.init n (fun i -> i)) in
      Alcotest.(check int) "all tasks ran" (n * (n - 1) / 2) (List.fold_left ( + ) 0 total))

let test_pool_single_lane () =
  (* jobs = 1 spawns no domains; everything runs in the caller. *)
  Domain_pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "clamped" 1 (Domain_pool.jobs pool);
      let d0 = Domain.self () in
      let ran_on = Domain_pool.await (Domain_pool.submit pool (fun () -> Domain.self ())) in
      Alcotest.(check bool) "inline" true (ran_on = d0))

let test_pool_invalid_jobs () =
  (match Domain_pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs:0 should raise"
  | exception Invalid_argument _ -> ());
  match Domain_pool.create ~jobs:(-3) () with
  | _ -> Alcotest.fail "negative jobs should raise"
  | exception Invalid_argument _ -> ()

let test_pool_default_jobs () =
  let pool = Domain_pool.create () in
  Alcotest.(check int) "create () = default_jobs" (Domain_pool.default_jobs ())
    (Domain_pool.jobs pool);
  Domain_pool.shutdown pool

let test_pool_work_stealing () =
  (* Skewed task sizes: one lane gets a task that dwarfs the rest, so
     completing 200 tasks in bounded time requires idle lanes to steal
     from the loaded one. Round-robin placement pins task i to lane
     (i mod jobs), which makes the skew deterministic. *)
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let n = 200 in
      let work i =
        (* every 4th task is ~1000x heavier than its neighbors *)
        let spins = if i mod 4 = 0 then 200_000 else 200 in
        let acc = ref 0 in
        for k = 1 to spins do
          acc := (!acc + k) land 0xFFFF
        done;
        ignore !acc;
        i
      in
      let got = Domain_pool.map_list pool work (List.init n (fun i -> i)) in
      Alcotest.(check (list int)) "skewed tasks all complete in order"
        (List.init n (fun i -> i))
        got)

let test_pool_shutdown () =
  let pool = Domain_pool.create ~jobs:2 () in
  Alcotest.(check (list int)) "before" [ 1 ] (Domain_pool.map_list pool (fun i -> i) [ 1 ]);
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* idempotent *)
  match Domain_pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "util"
    [
      ( "wire",
        [
          Alcotest.test_case "fixed-width ints" `Quick test_wire_ints;
          Alcotest.test_case "varint edges" `Quick test_wire_varint_edges;
          Alcotest.test_case "varint negative" `Quick test_wire_varint_negative;
          Alcotest.test_case "varint canonical" `Quick test_wire_varint_canonical;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "bytes/list/option/bool" `Quick test_wire_bytes_and_lists;
          Alcotest.test_case "trailing bytes" `Quick test_wire_trailing;
          Alcotest.test_case "hostile list count" `Quick test_wire_bad_list_count;
          Alcotest.test_case "endianness pinned" `Quick test_wire_endianness_pinned;
          Alcotest.test_case "u64 extremes" `Quick test_wire_u64_roundtrip_extremes;
          prop_wire_string_roundtrip;
          prop_wire_u32_roundtrip;
          prop_wire_varint_roundtrip;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse across rounds" `Quick test_pool_reuse;
          Alcotest.test_case "stress (tasks >> workers)" `Quick test_pool_stress;
          Alcotest.test_case "single lane runs inline" `Quick test_pool_single_lane;
          Alcotest.test_case "invalid jobs rejected" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
          Alcotest.test_case "work stealing under skew" `Quick test_pool_work_stealing;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "pinned stream" `Quick test_rng_known_splitmix_stream;
          prop_rng_int_bounds;
          prop_rng_int_in;
        ] );
      ( "hex",
        [
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "bad input" `Quick test_hex_bad;
          prop_hex_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "rate" `Quick test_rate;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "alignment" `Quick test_tablefmt_align;
          Alcotest.test_case "ragged rows" `Quick test_tablefmt_ragged;
          Alcotest.test_case "number formatting" `Quick test_tablefmt_fixed;
        ] );
    ]
