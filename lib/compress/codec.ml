exception Corrupt of string

let magic = "AVMZ1"
let nsymbols = 256 + (Lzss.max_match - Lzss.min_match + 1) (* literals + match lengths *)
let distance_bits = 12

let symbol_of_token = function
  | Lzss.Literal c -> Char.code c
  | Lzss.Match { length; _ } -> 256 + (length - Lzss.min_match)

let compress input =
  let tokens = Lzss.tokenize input in
  let freqs = Array.make nsymbols 0 in
  List.iter (fun t -> let s = symbol_of_token t in freqs.(s) <- freqs.(s) + 1) tokens;
  (* The empty input has no tokens; give the code one dummy symbol. *)
  if tokens = [] then freqs.(0) <- 1;
  let code = Huffman.of_frequencies freqs in
  let enc = Huffman.encoder code in
  let bits = Bitio.writer () in
  Huffman.write_lengths code bits;
  List.iter
    (fun t ->
      Huffman.encode enc bits (symbol_of_token t);
      match t with
      | Lzss.Literal _ -> ()
      | Lzss.Match { distance; _ } ->
        Bitio.put_bits bits ~value:(distance - 1) ~count:distance_bits)
    tokens;
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.raw w magic;
  Avm_util.Wire.varint w (String.length input);
  Avm_util.Wire.bytes w (Bitio.contents bits);
  Avm_util.Wire.contents w

let decompress ?max_len packed =
  let open Avm_util in
  let fail msg = raise (Corrupt msg) in
  let r = Wire.reader packed in
  (try if not (String.equal (Wire.read_raw r (String.length magic)) magic) then fail "bad magic"
   with Wire.Truncated -> fail "truncated header");
  let orig_len, payload =
    try
      let orig_len = Wire.read_varint r in
      let payload = Wire.read_bytes r in
      (orig_len, payload)
    with Wire.Truncated | Wire.Malformed _ -> fail "truncated payload"
  in
  (* Every symbol takes at least one bit and expands to at most
     [max_match] bytes, so the payload bounds the output: a larger
     claim is a lie, rejected before it sizes any allocation. *)
  if orig_len > 8 * String.length payload * Lzss.max_match then fail "length exceeds payload";
  (match max_len with
  | Some cap when orig_len > cap -> fail "length exceeds cap"
  | _ -> ());
  let bits = Bitio.reader payload in
  let code, dec =
    try
      let code = Huffman.read_lengths ~symbols:nsymbols bits in
      (code, Huffman.decoder code)
    with Bitio.Out_of_bits -> fail "truncated code table"
  in
  ignore code;
  let buf = Buffer.create (max orig_len 16) in
  (try
     while Buffer.length buf < orig_len do
       let sym = Huffman.decode dec bits in
       if sym < 256 then Buffer.add_char buf (Char.chr sym)
       else begin
         let length = sym - 256 + Lzss.min_match in
         let distance = Bitio.get_bits bits distance_bits + 1 in
         let start = Buffer.length buf - distance in
         if start < 0 then fail "reference before start";
         for k = 0 to length - 1 do
           Buffer.add_char buf (Buffer.nth buf (start + k))
         done
       end
     done
   with
  | Bitio.Out_of_bits -> fail "truncated bitstream"
  | Failure _ -> fail "bad huffman code");
  if Buffer.length buf <> orig_len then fail "length mismatch";
  Buffer.contents buf

let ratio s =
  if String.length s = 0 then 1.0
  else float_of_int (String.length s) /. float_of_int (String.length (compress s))
