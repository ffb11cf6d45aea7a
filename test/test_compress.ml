open Avm_compress

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Bitio -------------------------------------------------------------- *)

let test_bitio_single_bits () =
  let w = Bitio.writer () in
  List.iter (Bitio.put_bit w) [ 1; 0; 1; 1; 0; 0; 0; 1; 1 ];
  Alcotest.(check int) "bit count" 9 (Bitio.bit_length w);
  let r = Bitio.reader (Bitio.contents w) in
  List.iter
    (fun b -> Alcotest.(check int) "bit" b (Bitio.get_bit r))
    [ 1; 0; 1; 1; 0; 0; 0; 1; 1 ]

let test_bitio_out_of_bits () =
  let r = Bitio.reader "" in
  Alcotest.check_raises "empty" Bitio.Out_of_bits (fun () -> ignore (Bitio.get_bit r))

let test_bitio_put_bits_range () =
  let w = Bitio.writer () in
  Alcotest.check_raises "too wide" (Invalid_argument "Bitio.put_bits") (fun () ->
      Bitio.put_bits w ~value:0 ~count:60)

let prop_bitio_roundtrip =
  qtest "bitio: put_bits/get_bits roundtrip"
    QCheck2.Gen.(list_size (int_range 0 50) (pair (int_range 0 0xffff) (int_range 1 16)))
    (fun fields ->
      let fields = List.map (fun (v, c) -> (v land ((1 lsl c) - 1), c)) fields in
      let w = Bitio.writer () in
      List.iter (fun (value, count) -> Bitio.put_bits w ~value ~count) fields;
      let r = Bitio.reader (Bitio.contents w) in
      List.for_all (fun (v, c) -> Bitio.get_bits r c = v) fields)

(* --- Huffman -------------------------------------------------------------- *)

let roundtrip_symbols freqs symbols =
  let code = Huffman.of_frequencies freqs in
  let enc = Huffman.encoder code in
  let w = Bitio.writer () in
  List.iter (Huffman.encode enc w) symbols;
  let dec = Huffman.decoder code in
  let r = Bitio.reader (Bitio.contents w) in
  List.for_all (fun s -> Huffman.decode dec r = s) symbols

let test_huffman_single_symbol () =
  let freqs = Array.make 10 0 in
  freqs.(3) <- 100;
  Alcotest.(check bool) "single" true (roundtrip_symbols freqs [ 3; 3; 3; 3 ])

let test_huffman_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Huffman.of_frequencies: empty") (fun () ->
      ignore (Huffman.of_frequencies (Array.make 5 0)))

let test_huffman_absent_symbol () =
  let freqs = Array.make 4 0 in
  freqs.(0) <- 1;
  let enc = Huffman.encoder (Huffman.of_frequencies freqs) in
  let w = Bitio.writer () in
  Alcotest.check_raises "no code" (Invalid_argument "Huffman.encode: symbol has no code")
    (fun () -> Huffman.encode enc w 2)

let test_huffman_skewed_is_short () =
  (* A very frequent symbol must get a short code. *)
  let freqs = Array.make 8 1 in
  freqs.(0) <- 10000;
  let code = Huffman.of_frequencies freqs in
  let enc = Huffman.encoder code in
  let w = Bitio.writer () in
  Huffman.encode enc w 0;
  Alcotest.(check bool) "short code" true (Bitio.bit_length w <= 2)

let test_huffman_lengths_table_roundtrip () =
  let freqs = [| 5; 0; 9; 1; 0; 44; 2; 7 |] in
  let code = Huffman.of_frequencies freqs in
  let w = Bitio.writer () in
  Huffman.write_lengths code w;
  let r = Bitio.reader (Bitio.contents w) in
  let code' = Huffman.read_lengths ~symbols:8 r in
  Alcotest.(check (array int)) "lengths" code.Huffman.lengths code'.Huffman.lengths

let prop_huffman_roundtrip =
  qtest ~count:100 "huffman: random frequency tables roundtrip"
    QCheck2.Gen.(
      pair
        (array_size (int_range 2 40) (int_range 0 1000))
        (list_size (int_range 0 200) (int_range 0 1000000)))
    (fun (freqs, picks) ->
      let present = ref [] in
      Array.iteri (fun i f -> if f > 0 then present := i :: !present) freqs;
      match !present with
      | [] -> true (* nothing to encode *)
      | present_syms ->
        let syms = Array.of_list present_syms in
        let symbols = List.map (fun p -> syms.(p mod Array.length syms)) picks in
        roundtrip_symbols freqs symbols)

let test_huffman_kraft () =
  (* Code lengths must satisfy the Kraft inequality (a real prefix code). *)
  let freqs = Array.init 300 (fun i -> (i * 7 mod 83) + if i mod 9 = 0 then 500 else 0) in
  let code = Huffman.of_frequencies freqs in
  let kraft =
    Array.fold_left
      (fun acc l -> if l > 0 then acc +. (1.0 /. float_of_int (1 lsl l)) else acc)
      0.0 code.Huffman.lengths
  in
  Alcotest.(check bool) "kraft <= 1" true (kraft <= 1.0 +. 1e-9)

(* --- LZSS ------------------------------------------------------------------- *)

let test_lzss_roundtrip_basic () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s (Lzss.untokenize (Lzss.tokenize s)))
    [
      "";
      "a";
      "abcabcabcabc";
      String.make 10000 'z';
      "the quick brown fox jumps over the lazy dog and the quick brown fox again";
    ]

let test_lzss_finds_matches () =
  let input = String.concat "" (List.init 50 (fun _ -> "hello world! ")) in
  let tokens = Lzss.tokenize input in
  let matched_bytes =
    List.fold_left
      (fun acc -> function Lzss.Match { length; _ } -> acc + length | Lzss.Literal _ -> acc)
      0 tokens
  in
  (* Nearly everything after the first occurrence should be covered by
     back-references. *)
  Alcotest.(check bool) "high match coverage" true
    (matched_bytes * 10 > String.length input * 9)

let test_lzss_overlapping_match () =
  (* RLE-style overlap: distance < length. *)
  let s = "ab" ^ String.make 500 'x' in
  Alcotest.(check string) "overlap" s (Lzss.untokenize (Lzss.tokenize s))

let test_lzss_bad_reference () =
  Alcotest.check_raises "before start" (Invalid_argument "Lzss.untokenize: reference before start")
    (fun () -> ignore (Lzss.untokenize [ Lzss.Match { distance = 5; length = 3 } ]))

let prop_lzss_roundtrip =
  qtest ~count:150 "lzss: roundtrip on random bytes" QCheck2.Gen.string (fun s ->
      String.equal (Lzss.untokenize (Lzss.tokenize s)) s)

let prop_lzss_roundtrip_repetitive =
  qtest ~count:80 "lzss: roundtrip on repetitive data"
    QCheck2.Gen.(pair (string_size (int_range 1 20)) (int_range 1 100))
    (fun (unit_, reps) ->
      let s = String.concat "" (List.init reps (fun _ -> unit_)) in
      String.equal (Lzss.untokenize (Lzss.tokenize s)) s)

let prop_lzss_token_bounds =
  qtest ~count:80 "lzss: token fields within spec" QCheck2.Gen.string (fun s ->
      List.for_all
        (function
          | Lzss.Literal _ -> true
          | Lzss.Match { distance; length } ->
            distance >= 1 && distance <= Lzss.window_size && length >= Lzss.min_match
            && length <= Lzss.max_match)
        (Lzss.tokenize s))

(* --- Codec ---------------------------------------------------------------------- *)

let prop_codec_roundtrip =
  qtest ~count:150 "codec: roundtrip on random bytes" QCheck2.Gen.string (fun s ->
      String.equal (Codec.decompress (Codec.compress s)) s)

let test_codec_known_cases () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Codec.decompress (Codec.compress s)))
    [ ""; "x"; String.make 100000 'q'; "ababababababab" ]

let test_codec_compresses_logs () =
  let buf = Buffer.create 0 in
  for i = 0 to 5000 do
    Buffer.add_string buf (Printf.sprintf "entry %d type=TIME value=%d\n" i (i mod 97))
  done;
  Alcotest.(check bool) "ratio > 3" true (Codec.ratio (Buffer.contents buf) > 3.0)

let test_codec_corrupt_inputs () =
  let check_corrupt name s =
    Alcotest.(check bool) name true
      (match Codec.decompress s with
      | _ -> false
      | exception Codec.Corrupt _ -> true)
  in
  check_corrupt "empty" "";
  check_corrupt "bad magic" "NOTAVMZxxxxxxxxx";
  let good = Codec.compress "hello hello hello hello" in
  check_corrupt "truncated" (String.sub good 0 (String.length good - 3));
  let flipped = Bytes.of_string good in
  Bytes.set flipped (String.length good - 1) '\xff';
  (* Flipping tail bits may corrupt the stream; must never crash or
     return wrong data silently for this input. *)
  (match Codec.decompress (Bytes.to_string flipped) with
  | s -> Alcotest.(check bool) "flip detected or harmless" true (String.length s >= 0)
  | exception Codec.Corrupt _ -> ())

(* A short blob whose header claims a huge original length must be
   rejected before the claim sizes any buffer: the decoder used to
   reserve the claimed length up front (about 1 GB for 2^30, and
   Out_of_memory for 2^40). *)
let test_codec_length_claim_bounded () =
  let good = Codec.compress (String.concat " " (List.init 12 (fun i -> string_of_int (i * i)))) in
  let r = Avm_util.Wire.reader good in
  let magic = Avm_util.Wire.read_raw r 5 in
  ignore (Avm_util.Wire.read_varint r);
  let payload = Avm_util.Wire.read_bytes r in
  let with_claim claim =
    let w = Avm_util.Wire.writer () in
    Avm_util.Wire.raw w magic;
    Avm_util.Wire.varint w claim;
    Avm_util.Wire.bytes w payload;
    Avm_util.Wire.contents w
  in
  List.iter
    (fun (name, claim) ->
      let blob = with_claim claim in
      Alcotest.(check bool) (name ^ ": short blob") true (String.length blob < 1024);
      let before = Gc.allocated_bytes () in
      (match Codec.decompress blob with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Codec.Corrupt _ -> ());
      Alcotest.(check bool) (name ^ ": no large allocation") true
        (Gc.allocated_bytes () -. before < 1e6))
    [ ("2^30", 1 lsl 30); ("2^40", 1 lsl 40) ]

let test_codec_ratio_empty () = Alcotest.(check (float 0.001)) "empty" 1.0 (Codec.ratio "")

let () =
  Alcotest.run "compress"
    [
      ( "bitio",
        [
          Alcotest.test_case "single bits" `Quick test_bitio_single_bits;
          Alcotest.test_case "out of bits" `Quick test_bitio_out_of_bits;
          Alcotest.test_case "put_bits range" `Quick test_bitio_put_bits_range;
          prop_bitio_roundtrip;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "single symbol" `Quick test_huffman_single_symbol;
          Alcotest.test_case "empty rejected" `Quick test_huffman_empty_rejected;
          Alcotest.test_case "absent symbol" `Quick test_huffman_absent_symbol;
          Alcotest.test_case "frequent symbol gets short code" `Quick test_huffman_skewed_is_short;
          Alcotest.test_case "length table roundtrip" `Quick test_huffman_lengths_table_roundtrip;
          Alcotest.test_case "kraft inequality" `Quick test_huffman_kraft;
          prop_huffman_roundtrip;
        ] );
      ( "lzss",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_lzss_roundtrip_basic;
          Alcotest.test_case "finds matches" `Quick test_lzss_finds_matches;
          Alcotest.test_case "overlapping match" `Quick test_lzss_overlapping_match;
          Alcotest.test_case "bad reference" `Quick test_lzss_bad_reference;
          prop_lzss_roundtrip;
          prop_lzss_roundtrip_repetitive;
          prop_lzss_token_bounds;
        ] );
      ( "codec",
        [
          Alcotest.test_case "known cases" `Quick test_codec_known_cases;
          Alcotest.test_case "compresses log-like data" `Quick test_codec_compresses_logs;
          Alcotest.test_case "corrupt inputs rejected" `Quick test_codec_corrupt_inputs;
          Alcotest.test_case "length claim bounded" `Quick test_codec_length_claim_bounded;
          Alcotest.test_case "ratio of empty" `Quick test_codec_ratio_empty;
          prop_codec_roundtrip;
        ] );
    ]
