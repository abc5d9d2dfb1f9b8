(* Physical register file layout.

   The balanced allocation packs each thread's private block at the
   bottom of the file, in thread order, and the globally shared block at
   the top; colours map as

     colour k <= PR_i      ->  private_base_i + k - 1
     colour k >  PR_i      ->  shared_base + (k - PR_i) - 1

   so a shared colour indexes the same physical registers from every
   thread, which is what makes cross-thread reuse work. The baseline
   layout is the conventional fixed partition (32 registers per thread on
   the modelled machine). *)

open Npra_ir

type t = {
  nreg : int;
  private_base : int array;
  private_size : int array;
  shared_base : int;
  sgr : int;
}

exception Overflow of string

let layout ~nreg ~prs ~sgr =
  let prs = Array.of_list prs in
  let total_pr = Array.fold_left ( + ) 0 prs in
  if total_pr + sgr > nreg then
    raise
      (Overflow
         (Fmt.str "layout needs %d private + %d shared > %d registers"
            total_pr sgr nreg));
  let private_base = Array.make (Array.length prs) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i pr ->
      private_base.(i) <- !acc;
      acc := !acc + pr)
    prs;
  {
    nreg;
    private_base;
    private_size = prs;
    shared_base = nreg - sgr;
    sgr;
  }

let fixed_partition ~nreg ~nthd =
  let k = nreg / nthd in
  {
    nreg;
    private_base = Array.init nthd (fun i -> i * k);
    private_size = Array.make nthd k;
    shared_base = nreg;
    sgr = 0;
  }

(* Uneven fixed partition: every thread keeps at least half its equal
   share (never less than 2), and the registers left over are dealt
   out proportionally to the weights, largest remainder first (ties to
   the lower thread index). Deterministic in (nreg, weights), so a
   weighted layout is as cacheable as an equal split. *)
let weighted_partition ~nreg ~weights =
  let nthd = List.length weights in
  if nthd = 0 then invalid_arg "weighted_partition: no weights";
  let w = Array.of_list (List.map (max 1) weights) in
  let equal = nreg / nthd in
  let kmin = min equal (max 2 (equal / 2)) in
  let sizes = Array.make nthd kmin in
  let spare = nreg - (nthd * kmin) in
  let total_w = Array.fold_left ( + ) 0 w in
  let given = ref 0 in
  Array.iteri
    (fun i wi ->
      let share = spare * wi / total_w in
      sizes.(i) <- sizes.(i) + share;
      given := !given + share)
    w;
  (* largest remainder, ties to the lower index *)
  let rem = Array.mapi (fun i wi -> (spare * wi mod total_w, i)) w in
  Array.sort (fun (r1, i1) (r2, i2) -> compare (r2, i1) (r1, i2)) rem;
  let leftover = spare - !given in
  Array.iteri
    (fun rank (_, i) -> if rank < leftover then sizes.(i) <- sizes.(i) + 1)
    rem;
  let base = ref 0 in
  let private_base =
    Array.map
      (fun sz ->
        let b = !base in
        base := b + sz;
        b)
      sizes
  in
  { nreg; private_base; private_size = sizes; shared_base = nreg; sgr = 0 }

let reg_of_color t ~thread color =
  let pr = t.private_size.(thread) in
  if color < 1 then invalid_arg "reg_of_color: colour < 1"
  else if color <= pr then Reg.phys (t.private_base.(thread) + color - 1)
  else begin
    let s = color - pr in
    if s > t.sgr then
      raise
        (Overflow
           (Fmt.str "thread %d colour %d exceeds PR=%d + SGR=%d" thread color
              pr t.sgr));
    Reg.phys (t.shared_base + s - 1)
  end

let private_range t ~thread =
  (t.private_base.(thread), t.private_base.(thread) + t.private_size.(thread))

let shared_range t = (t.shared_base, t.shared_base + t.sgr)

let pp ppf t =
  Array.iteri
    (fun i base ->
      if t.private_size.(i) = 0 then
        Fmt.pf ppf "thread %d: no private registers@." i
      else
        Fmt.pf ppf "thread %d: private r%d..r%d@." i base
          (base + t.private_size.(i) - 1))
    t.private_base;
  if t.sgr > 0 then
    Fmt.pf ppf "shared: r%d..r%d@." t.shared_base (t.shared_base + t.sgr - 1)
