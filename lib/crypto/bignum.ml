(* Little-endian arrays of [bits_per_limb]-bit limbs, normalized so the
   top limb is nonzero; zero is the empty array. Limb products fit in a
   native int: 2 * bits_per_limb + headroom < 63. *)

let bits_per_limb = 26
let base = 1 lsl bits_per_limb
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr bits_per_limb) in
  Array.of_list (limbs v)

let one = of_int 1
let two = of_int 2

let to_int a =
  let n = Array.length a in
  if n * bits_per_limb > 62 && n > 0 then begin
    (* May still fit; accumulate with overflow check. *)
    let v = ref 0 in
    for i = n - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr bits_per_limb then failwith "Bignum.to_int: overflow";
      v := (!v lsl bits_per_limb) lor a.(i)
    done;
    !v
  end
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl bits_per_limb) lor a.(i)
    done;
    !v
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let x = if i < la then a.(i) else 0 in
    let y = if i < lb then b.(i) else 0 in
    let s = x + y + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr bits_per_limb
  done;
  r.(n) <- !carry;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let y = if i < lb then b.(i) else 0 in
    let d = a.(i) - y - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let add_int a v = if v >= 0 then add a (of_int v) else sub a (of_int (-v))
let sub_int a v = if v >= 0 then sub a (of_int v) else add a (of_int (-v))

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr bits_per_limb
      done;
      (* Propagate the final carry (may itself carry further). *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land limb_mask;
        carry := t lsr bits_per_limb;
        incr k
      done
    done;
    normalize r
  end

let mul_int a v = mul a (of_int v)

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * bits_per_limb) + width top 0
  end

let testbit a i =
  let limb = i / bits_per_limb and off = i mod bits_per_limb in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let is_even a = not (testbit a 0)

let shift_left a bits =
  if bits < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / bits_per_limb and bit_shift = bits mod bits_per_limb in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr bits_per_limb
    done;
    normalize r
  end

let shift_right a bits =
  if bits < 0 then invalid_arg "Bignum.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / bits_per_limb and bit_shift = bits mod bits_per_limb in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (bits_per_limb - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Short division by a single limb. *)
let divmod_limb a v =
  assert (v > 0 && v < base);
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl bits_per_limb) lor a.(i) in
    q.(i) <- cur / v;
    rem := cur mod v
  done;
  (normalize q, !rem)

(* Knuth TAOCP vol. 2 Algorithm D (after Hacker's Delight divmnu). *)
let divmod_long u v =
  let n = Array.length v in
  let m = Array.length u - n in
  assert (n >= 2 && m >= 0);
  (* Normalize so the top limb of v has its high bit set. *)
  let rec leading_zeros x acc = if x land (base lsr 1) <> 0 then acc else leading_zeros (x lsl 1) (acc + 1) in
  let s = leading_zeros v.(n - 1) 0 in
  let vn = Array.make n 0 in
  for i = n - 1 downto 1 do
    let lo = if s = 0 then 0 else v.(i - 1) lsr (bits_per_limb - s) in
    vn.(i) <- ((v.(i) lsl s) lor lo) land limb_mask
  done;
  vn.(0) <- (v.(0) lsl s) land limb_mask;
  let un = Array.make (m + n + 1) 0 in
  un.(m + n) <- (if s = 0 then 0 else u.(m + n - 1) lsr (bits_per_limb - s));
  for i = m + n - 1 downto 1 do
    let lo = if s = 0 then 0 else u.(i - 1) lsr (bits_per_limb - s) in
    un.(i) <- ((u.(i) lsl s) lor lo) land limb_mask
  done;
  un.(0) <- (u.(0) lsl s) land limb_mask;
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl bits_per_limb) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base || !qhat * vn.(n - 2) > (!rhat lsl bits_per_limb) lor un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply and subtract. *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      let t = un.(i + j) - !k - (p land limb_mask) in
      un.(i + j) <- t land limb_mask;
      k := (p lsr bits_per_limb) - (t asr bits_per_limb)
    done;
    let t = un.(j + n) - !k in
    un.(j + n) <- t land limb_mask;
    q.(j) <- !qhat;
    if t < 0 then begin
      (* qhat was one too large; add v back. *)
      q.(j) <- q.(j) - 1;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let t = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- t land limb_mask;
        carry := t lsr bits_per_limb
      done;
      un.(j + n) <- (un.(j + n) + !carry) land limb_mask
    end
  done;
  (* Denormalize the remainder. *)
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    let hi = if s = 0 then 0 else (un.(i + 1) lsl (bits_per_limb - s)) land limb_mask in
    r.(i) <- (un.(i) lsr s) lor hi
  done;
  (normalize q, normalize r)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else divmod_long a b

let rem a b = snd (divmod a b)

let rem_int a v =
  if v <= 0 then invalid_arg "Bignum.rem_int";
  if v < base then snd (divmod_limb a v) else to_int (rem a (of_int v))

let mod_pow_classic b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem b m) in
    let nbits = bit_length e in
    for i = 0 to nbits - 1 do
      if testbit e i then result := rem (mul !result !b) m;
      if i < nbits - 1 then b := rem (mul !b !b) m
    done;
    !result
  end

(* Montgomery-form modular arithmetic, the hot path behind RSA signing
   and verification (DESIGN.md §12, §17). A context precomputes, per
   odd modulus m of k limbs: n0' = -m^{-1} mod 2^26 and R^2 mod m where
   R = 2^(26k). Every product of every exponentiation goes through one
   product-scanning kernel ([mul_mont]/[sqr_mont]) computing
   REDC(a*b) = a*b*R^{-1} mod m in a single pass — no Knuth long
   division, no double-width temporary — into caller-provided scratch. *)
module Mont = struct
  type nonrec ctx = {
    m : t; (* modulus, normalized, length k *)
    k : int;
    n0' : int; (* -m^{-1} mod base *)
    r2 : int array; (* R^2 mod m, padded to k limbs *)
  }

  let modulus c = c.m

  (* A column of [mul_mont]/[sqr_mont] sums up to 2k limb products
     (each < 2^52) in one 63-bit int; 500 limbs keeps that under 2^62.
     Wider moduli (over 13,000 bits) get no context and take the
     classic ladder. *)
  let max_limbs = 500

  (* Inverse of the odd low limb mod 2^26 by Newton iteration
     (x := x * (2 - m0*x) doubles the number of correct low bits;
     x = m0 is correct mod 8), then negated. *)
  let neg_inv_limb m0 =
    let x = ref m0 in
    for _ = 1 to 5 do
      let d = (2 - (m0 * !x)) land limb_mask in
      x := !x * d land limb_mask
    done;
    (base - !x) land limb_mask

  let pad k a =
    let r = Array.make k 0 in
    Array.blit a 0 r 0 (Array.length a);
    r

  let make m =
    let k = Array.length m in
    if k < 2 || k > max_limbs || is_even m then None
    else begin
      let r2 = rem (shift_left one (2 * k * bits_per_limb)) m in
      Some { m; k; n0' = neg_inv_limb m.(0); r2 = pad k r2 }
    end

  (* Working storage for exponentiations under one context, allocated
     once and reusable across a whole batch of them (DESIGN.md §17). *)
  type scratch = {
    s_q : int array; (* per-column reduction quotients *)
    s_acc : int array; (* the accumulator *)
    s_base : int array; (* the plain base, padded to k limbs *)
    s_bm : int array; (* the base in Montgomery form *)
  }

  let scratch ctx =
    let k = ctx.k in
    {
      s_q = Array.make k 0;
      s_acc = Array.make k 0;
      s_base = Array.make k 0;
      s_bm = Array.make k 0;
    }

  (* Final step shared by the product-scanning routines below: [dest]
     holds (x + q*m)/R < 2m split across k limbs plus an overflow bit
     [hi]; bring it under m with at most one subtraction. *)
  let final_sub ctx ~dest hi =
    let k = ctx.k and n = ctx.m in
    let ge =
      hi <> 0
      ||
      let rec cmp i =
        if i < 0 then true
        else begin
          let di = Array.unsafe_get dest i and ni = Array.unsafe_get n i in
          if di <> ni then di > ni else cmp (i - 1)
        end
      in
      cmp (k - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = Array.unsafe_get dest i - Array.unsafe_get n i - !borrow in
        if d < 0 then begin
          Array.unsafe_set dest i (d + base);
          borrow := 1
        end
        else begin
          Array.unsafe_set dest i d;
          borrow := 0
        end
      done
    end

  (* Product-scanning (Comba) Montgomery multiply: one pass over the
     2k-1 columns of a*b, interleaving the reduction — each low column
     fixes its quotient limb q_col and is cancelled on the spot, each
     high column emits a result limb. The running column sum lives in
     one machine word (see [max_limbs]), so there is no double-width
     temporary to fill, re-read and re-write; a*b and q*m share their
     index range in every column and are summed in one loop. [a], [b]
     and [dest] have k limbs, [a], [b] < m. [dest] may alias [a] or
     [b]: limb [col-k] is dead in every later column by the time it is
     overwritten. *)
  let mul_mont ctx s ~dest a b =
    let k = ctx.k and n = ctx.m and n0' = ctx.n0' in
    let q = s.s_q in
    let acc = ref 0 in
    for col = 0 to k - 1 do
      let sum = ref (!acc + (Array.unsafe_get a col * Array.unsafe_get b 0)) in
      for i = 0 to col - 1 do
        sum :=
          !sum
          + (Array.unsafe_get a i * Array.unsafe_get b (col - i))
          + (Array.unsafe_get q i * Array.unsafe_get n (col - i))
      done;
      let qc = !sum * n0' land limb_mask in
      Array.unsafe_set q col qc;
      acc := (!sum + (qc * Array.unsafe_get n 0)) lsr bits_per_limb
    done;
    for col = k to (2 * k) - 2 do
      let sum = ref !acc in
      for i = col - k + 1 to k - 1 do
        sum :=
          !sum
          + (Array.unsafe_get a i * Array.unsafe_get b (col - i))
          + (Array.unsafe_get q i * Array.unsafe_get n (col - i))
      done;
      Array.unsafe_set dest (col - k) (!sum land limb_mask);
      acc := !sum lsr bits_per_limb
    done;
    Array.unsafe_set dest (k - 1) (!acc land limb_mask);
    final_sub ctx ~dest (!acc lsr bits_per_limb)

  (* Product-scanning Montgomery squaring: as [mul_mont], but each
     column sums only the distinct cross products a_i*a_j (i < j),
     doubled in-register, plus the diagonal term — about half the
     multiply work. Most of an exponentiation's products land here. *)
  let sqr_mont ctx s ~dest a =
    let k = ctx.k and n = ctx.m and n0' = ctx.n0' in
    let q = s.s_q in
    let acc = ref 0 in
    for col = 0 to k - 1 do
      let sum = ref 0 in
      (* pairs i < col-i; [asr] so col = 0 gives an empty range, not 0/2 *)
      for i = 0 to (col - 1) asr 1 do
        sum := !sum + (Array.unsafe_get a i * Array.unsafe_get a (col - i))
      done;
      let sum = ref ((!sum lsl 1) + !acc) in
      if col land 1 = 0 then begin
        let d = Array.unsafe_get a (col / 2) in
        sum := !sum + (d * d)
      end;
      for j = 0 to col - 1 do
        sum := !sum + (Array.unsafe_get q j * Array.unsafe_get n (col - j))
      done;
      let qc = !sum * n0' land limb_mask in
      Array.unsafe_set q col qc;
      acc := (!sum + (qc * Array.unsafe_get n 0)) lsr bits_per_limb
    done;
    for col = k to (2 * k) - 2 do
      let sum = ref 0 in
      for i = col - k + 1 to (col - 1) / 2 do
        sum := !sum + (Array.unsafe_get a i * Array.unsafe_get a (col - i))
      done;
      let sum = ref ((!sum lsl 1) + !acc) in
      if col land 1 = 0 then begin
        let d = Array.unsafe_get a (col / 2) in
        sum := !sum + (d * d)
      end;
      for j = col - k + 1 to k - 1 do
        sum := !sum + (Array.unsafe_get q j * Array.unsafe_get n (col - j))
      done;
      Array.unsafe_set dest (col - k) (!sum land limb_mask);
      acc := !sum lsr bits_per_limb
    done;
    Array.unsafe_set dest (k - 1) (!acc land limb_mask);
    final_sub ctx ~dest (!acc lsr bits_per_limb)

  (* base^exp mod m, left to right over sliding windows: each window is
     a run of at most [w] exponent bits ending in a set bit, so it
     names an odd power of the base. Exponents up to 64 bits use w = 1
     (square-and-multiply, no table); longer ones w = 5 (16 odd powers
     precomputed) — a 384-bit CRT half-exponent then costs ~384
     squarings and ~64 multiplies. When the last step multiplies by the
     base itself it multiplies by the *plain* base instead:
     REDC(x*R * b) = x*b mod m, so that one product also leaves
     Montgomery form, and e = 65537 costs one conversion in, sixteen
     squarings and one multiply. *)
  let pow ?scratch:s ctx b e =
    let k = ctx.k in
    if is_zero e then one
    else begin
      let s = match s with Some s -> s | None -> scratch ctx in
      let b = rem b ctx.m in
      Array.fill s.s_base 0 k 0;
      Array.blit b 0 s.s_base 0 (Array.length b);
      mul_mont ctx s ~dest:s.s_bm s.s_base ctx.r2;
      let nbits = bit_length e in
      let w = if nbits <= 64 then 1 else 5 in
      let odd = Array.make (1 lsl (w - 1)) s.s_bm in
      if w > 1 then begin
        let b2 = Array.make k 0 in
        sqr_mont ctx s ~dest:b2 s.s_bm;
        for j = 1 to Array.length odd - 1 do
          let d = Array.make k 0 in
          mul_mont ctx s ~dest:d odd.(j - 1) b2;
          odd.(j) <- d
        done
      end;
      let acc = s.s_acc in
      let started = ref false and plain = ref false in
      let i = ref (nbits - 1) in
      while !i >= 0 do
        if not (testbit e !i) then begin
          (* [acc] is live: bit nbits-1 is set, so a window came first. *)
          sqr_mont ctx s ~dest:acc acc;
          decr i
        end
        else begin
          let j = ref (max 0 (!i - w + 1)) in
          while not (testbit e !j) do
            incr j
          done;
          let v = ref 0 in
          for bit = !i downto !j do
            v := (!v lsl 1) lor if testbit e bit then 1 else 0;
            if !started then sqr_mont ctx s ~dest:acc acc
          done;
          if not !started then begin
            Array.blit odd.(!v lsr 1) 0 acc 0 k;
            started := true
          end
          else if !j = 0 && !v = 1 then begin
            mul_mont ctx s ~dest:acc acc s.s_base;
            plain := true
          end
          else mul_mont ctx s ~dest:acc acc odd.(!v lsr 1);
          i := !j - 1
        end
      done;
      if not !plain then begin
        (* Leave Montgomery form: REDC(acc * 1). *)
        Array.fill s.s_base 0 k 0;
        s.s_base.(0) <- 1;
        mul_mont ctx s ~dest:acc acc s.s_base
      end;
      let n = ref k in
      while !n > 0 && acc.(!n - 1) = 0 do
        decr n
      done;
      Array.sub acc 0 !n
    end
end

let mod_pow b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    match Mont.make m with
    | Some c -> Mont.pow c b e
    | None -> mod_pow_classic b e m
  end

(* Extended Euclid on signed magnitudes, for modular inverses. *)
type signed = { neg : bool; mag : t }

let s_of t = { neg = false; mag = t }

let s_sub a b =
  (* a - b over signed values. *)
  match (a.neg, b.neg) with
  | false, false ->
    if compare a.mag b.mag >= 0 then { neg = false; mag = sub a.mag b.mag }
    else { neg = true; mag = sub b.mag a.mag }
  | true, true ->
    if compare b.mag a.mag >= 0 then { neg = false; mag = sub b.mag a.mag }
    else { neg = true; mag = sub a.mag b.mag }
  | false, true -> { neg = false; mag = add a.mag b.mag }
  | true, false -> { neg = not (is_zero (add a.mag b.mag)); mag = add a.mag b.mag }

let s_mul_nat a n = { a with mag = mul a.mag n }

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

let mod_inv a m =
  if is_zero m then invalid_arg "Bignum.mod_inv: zero modulus";
  let a = rem a m in
  (* Invariants: old_r = old_s*a (mod m), r = s*a (mod m). *)
  let rec go old_r r old_s s =
    if is_zero r then (old_r, old_s)
    else begin
      let q, rr = divmod old_r r in
      go r rr s (s_sub old_s (s_mul_nat s q))
    end
  in
  let g, x = go m a (s_of zero) (s_of one) in
  (* Here g = gcd(m, a) and x satisfies x*a = g (mod m) — note the
     argument order: we seeded old_r with m. *)
  if not (equal g one) then None
  else begin
    let v = rem x.mag m in
    Some (if x.neg && not (is_zero v) then sub m v else v)
  end

(* Byte conversions are single-pass bit accumulators (no per-byte
   shift/add over freshly allocated arrays): decoding packs 8 bits at a
   time into the limb being built, encoding drains limbs 8 bits at a
   time into the output buffer. Both are linear in the input size,
   which matters because every RSA verification decodes a signature
   and encodes a result. *)
let of_bytes_be s =
  let len = String.length s in
  if len = 0 then zero
  else begin
    let r = Array.make (((len * 8) + bits_per_limb - 1) / bits_per_limb) 0 in
    let acc = ref 0 and accbits = ref 0 and li = ref 0 in
    for i = len - 1 downto 0 do
      acc := !acc lor (Char.code (String.unsafe_get s i) lsl !accbits);
      accbits := !accbits + 8;
      if !accbits >= bits_per_limb then begin
        r.(!li) <- !acc land limb_mask;
        incr li;
        acc := !acc lsr bits_per_limb;
        accbits := !accbits - bits_per_limb
      end
    done;
    if !accbits > 0 then r.(!li) <- !acc;
    normalize r
  end

(* Drain [a]'s limbs big-endian into [b.[0 .. out_len-1]], zero-padded
   on the left. Shared by [to_bytes_be] and the batch-verify path that
   reuses one output buffer across a whole segment's signatures. *)
let blit_bytes_be a b out_len =
  let nbytes = (bit_length a + 7) / 8 in
  if nbytes > out_len then invalid_arg "Bignum.to_bytes_be: value too large";
  Bytes.fill b 0 (out_len - nbytes) '\000';
  let acc = ref 0 and accbits = ref 0 and li = ref 0 in
  let la = Array.length a in
  for i = out_len - 1 downto out_len - nbytes do
    if !accbits < 8 && !li < la then begin
      acc := !acc lor (Array.unsafe_get a !li lsl !accbits);
      accbits := !accbits + bits_per_limb;
      incr li
    end;
    Bytes.unsafe_set b i (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    accbits := max 0 (!accbits - 8)
  done

let to_bytes_be ?len a =
  let nbytes = (bit_length a + 7) / 8 in
  let out_len = match len with None -> max nbytes 1 | Some l -> l in
  let b = Bytes.create out_len in
  blit_bytes_be a b out_len;
  Bytes.unsafe_to_string b

let to_hex a = Avm_util.Hex.encode (to_bytes_be a)
let of_hex h = of_bytes_be (Avm_util.Hex.decode h)
let pp fmt a = Format.pp_print_string fmt (to_hex a)

let random_bits rng n =
  if n <= 0 then zero
  else begin
    let limbs = (n + bits_per_limb - 1) / bits_per_limb in
    let a = Array.init limbs (fun _ -> Avm_util.Rng.bits32 rng land limb_mask) in
    let extra = (limbs * bits_per_limb) - n in
    a.(limbs - 1) <- a.(limbs - 1) land (limb_mask lsr extra);
    normalize a
  end

let random_below rng n =
  if is_zero n then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length n in
  let rec go () =
    let c = random_bits rng bits in
    if compare c n < 0 then c else go ()
  in
  go ()

let small_primes =
  (* Primes below 1000, for cheap trial division before Miller–Rabin. *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  !acc

let is_probable_prime rng ?(rounds = 20) n =
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else begin
    let small =
      List.exists
        (fun p ->
          match compare n (of_int p) with
          | 0 -> false (* n = p: prime, handled below *)
          | c when c < 0 -> false
          | _ -> rem_int n p = 0)
        small_primes
    in
    if List.exists (fun p -> equal n (of_int p)) small_primes then true
    else if small then false
    else begin
      (* n - 1 = d * 2^s with d odd. *)
      let n1 = sub n one in
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n1 0 in
      let witness () =
        let a = add two (random_below rng (sub n (of_int 4))) in
        let x = ref (mod_pow a d n) in
        if equal !x one || equal !x n1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := rem (mul !x !x) n;
               if equal !x n1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec rounds_left k = if k = 0 then true else if witness () then false else rounds_left (k - 1) in
      rounds_left rounds
    end
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Bignum.random_prime: need >= 2 bits";
  let rec go () =
    (* Force the top bit (exact width) and the low bit (odd). *)
    let c = add (shift_left one (bits - 1)) (random_bits rng (bits - 1)) in
    let c = if is_even c then add c one else c in
    if is_probable_prime rng c then c else go ()
  in
  go ()
