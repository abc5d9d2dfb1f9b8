(* Dense fixed-width bit vectors backed by int arrays.

   62 usable bits per word (OCaml boxed-free ints); element [i] lives in
   word [i / bpw] at bit [i mod bpw]. Binary operations are straight word
   loops, so union/diff/equal cost O(width/62) independent of how many
   elements are set — the whole point of the dense dataflow engine. *)

let bpw = Sys.int_size - 1  (* bits per word, 62 on 64-bit *)

type t = {
  width : int;
  words : int array;
}

let nwords width = (width + bpw - 1) / bpw

let create width =
  if width < 0 then Fmt.invalid_arg "Bitset.create: negative width %d" width;
  { width; words = Array.make (max 1 (nwords width)) 0 }

let check_elt t i =
  if i < 0 || i >= t.width then
    Fmt.invalid_arg "Bitset: element %d outside width %d" i t.width

let check_same a b =
  if a.width <> b.width then
    Fmt.invalid_arg "Bitset: width mismatch (%d vs %d)" a.width b.width

let mem t i =
  check_elt t i;
  t.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let add t i =
  check_elt t i;
  t.words.(i / bpw) <- t.words.(i / bpw) lor (1 lsl (i mod bpw))

let remove t i =
  check_elt t i;
  t.words.(i / bpw) <- t.words.(i / bpw) land lnot (1 lsl (i mod bpw))

let copy t = { t with words = Array.copy t.words }

let equal a b =
  check_same a b;
  let rec go i = i < 0 || (a.words.(i) = b.words.(i) && go (i - 1)) in
  go (Array.length a.words - 1)

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let subset a b =
  check_same a b;
  let rec go i =
    i < 0 || (a.words.(i) land lnot b.words.(i) = 0 && go (i - 1))
  in
  go (Array.length a.words - 1)

let union_into ~into src =
  check_same into src;
  let grew = ref false in
  for i = 0 to Array.length into.words - 1 do
    let w = into.words.(i) lor src.words.(i) in
    if w <> into.words.(i) then begin
      grew := true;
      into.words.(i) <- w
    end
  done;
  !grew

let diff_into ~into src =
  check_same into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land lnot src.words.(i)
  done

let inter_into ~into src =
  check_same into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land src.words.(i)
  done

let union a b =
  let r = copy a in
  ignore (union_into ~into:r b);
  r

let inter a b =
  let r = copy a in
  inter_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      (* lowest set bit *)
      let b = !w land - !w in
      let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
      f ((wi * bpw) + log2 b 0);
      w := !w land lnot b
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let of_list width elts =
  let t = create width in
  List.iter (add t) elts;
  t

let bits_per_word = bpw
let words_for = nwords

let load_words t ~src ~pos =
  Array.blit src pos t.words 0 (Array.length t.words);
  t
