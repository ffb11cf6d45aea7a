type writer = Buffer.t

let writer () = Buffer.create 256
let contents w = Buffer.contents w
let length w = Buffer.length w
let buffer w = w
let reset w = Buffer.clear w
let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

let u16 w v =
  u8 w v;
  u8 w (v lsr 8)

let u32 w v =
  u16 w v;
  u16 w (v lsr 16)

let u64 w v =
  for i = 0 to 7 do
    u8 w (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let varint w v =
  if v < 0 then invalid_arg "Wire.varint: negative";
  let rec go v =
    if v < 0x80 then u8 w v
    else begin
      u8 w (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let bool w b = u8 w (if b then 1 else 0)

let bytes w s =
  varint w (String.length s);
  Buffer.add_string w s

let raw w s = Buffer.add_string w s

let list w f xs =
  varint w (List.length xs);
  List.iter (f w) xs

let option w f = function
  | None -> u8 w 0
  | Some x ->
    u8 w 1;
    f w x

type reader = { input : string; mutable pos : int }

exception Truncated
exception Malformed of string

let reader input = { input; pos = 0 }
let pos r = r.pos
let remaining r = String.length r.input - r.pos
let at_end r = remaining r = 0

let read_u8 r =
  if r.pos >= String.length r.input then raise Truncated;
  let v = Char.code r.input.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  let a = read_u8 r in
  let b = read_u8 r in
  a lor (b lsl 8)

let read_u32 r =
  let a = read_u16 r in
  let b = read_u16 r in
  a lor (b lsl 16)

let read_u64 r =
  let v = ref 0L in
  for i = 0 to 7 do
    let b = Int64.of_int (read_u8 r) in
    v := Int64.logor !v (Int64.shift_left b (8 * i))
  done;
  !v

(* Canonical decoding: exactly the bytes [varint] writes. A non-minimal
   encoding (a final zero byte after the first) or a value above
   [max_int] (which would wrap negative) is malformed, so decoding and
   re-encoding a value is the identity on every accepted input. *)
let read_varint r =
  let rec go shift acc =
    let b = read_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then
      if shift >= 56 then raise (Malformed "varint too long") else go (shift + 7) acc
    else if b = 0 && shift > 0 then raise (Malformed "non-minimal varint")
    else if shift = 56 && b > 0x3f then raise (Malformed "varint exceeds max_int")
    else acc
  in
  go 0 0

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Malformed (Printf.sprintf "bad bool byte %d" n))

let read_raw r n =
  if n < 0 || remaining r < n then raise Truncated;
  let s = String.sub r.input r.pos n in
  r.pos <- r.pos + n;
  s

let read_bytes r =
  let n = read_varint r in
  read_raw r n

let read_list r f =
  let n = read_varint r in
  if n > remaining r then raise (Malformed "list count exceeds input");
  List.init n (fun _ -> f r)

let read_option r f =
  match read_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> raise (Malformed (Printf.sprintf "bad option byte %d" n))

let expect_end r =
  if not (at_end r) then
    raise (Malformed (Printf.sprintf "%d trailing bytes" (remaining r)))
