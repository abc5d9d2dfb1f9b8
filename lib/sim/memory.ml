(* Word-addressed memory shared by all threads of a processing unit.

   The model is a flat sparse array of words; addresses are plain
   integers. Memory itself is latency-free: the machine charges each
   load/store the latency of the address's {e tier} — scratch, SRAM or
   SDRAM on a real NPU — looked up through a {!hierarchy}, or a single
   flat figure when the machine runs the classic one-tier config. There
   is no cache, matching the modelled NPU. *)

(* Storage is paged: the sparse address space is carved into 4096-word
   pages held in a hashtable keyed by page id ([addr asr 12], so
   negative addresses page correctly), and each access goes through a
   one-entry page cache. Simulated programs are overwhelmingly
   page-local — stack frames, spill slots, packet buffers — so the
   common case is an integer compare plus an array index instead of a
   per-word hash lookup, which dominated load/store cost under the old
   [(addr, word) Hashtbl] layout. A per-page presence bitmap records
   which words were explicitly stored, preserving [dump]'s contract of
   listing exactly the written words even when the written value is 0. *)

let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

type page = { values : int array; present : Bytes.t }

type t = {
  mutable last_id : int;  (* page id of [last]; [max_int] = cache empty *)
  mutable last : page;
  pages : (int, page) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
}

let fresh_page () =
  { values = Array.make page_words 0; present = Bytes.make (page_words / 8) '\000' }

(* The empty cache's shared page, never accessed: [max_int] can never
   be a real page id (ids are [addr asr page_bits]). *)
let no_page = { values = [||]; present = Bytes.empty }

let create () =
  {
    last_id = max_int;
    last = no_page;
    pages = Hashtbl.create 16;
    reads = 0;
    writes = 0;
  }

let find_word t addr =
  let id = addr asr page_bits in
  if t.last_id = id then t.last.values.(addr land page_mask)
  else
    match Hashtbl.find_opt t.pages id with
    | Some p ->
      t.last_id <- id;
      t.last <- p;
      p.values.(addr land page_mask)
    | None -> 0

let store_word t addr v =
  let id = addr asr page_bits in
  let p =
    if t.last_id = id then t.last
    else
      match Hashtbl.find_opt t.pages id with
      | Some p ->
        t.last_id <- id;
        t.last <- p;
        p
      | None ->
        let p = fresh_page () in
        Hashtbl.add t.pages id p;
        t.last_id <- id;
        t.last <- p;
        p
  in
  let slot = addr land page_mask in
  p.values.(slot) <- v;
  let byte = slot lsr 3 in
  Bytes.set p.present byte
    (Char.chr (Char.code (Bytes.get p.present byte) lor (1 lsl (slot land 7))))

let read t addr =
  t.reads <- t.reads + 1;
  find_word t addr

let peek t addr = find_word t addr

let write t addr v =
  t.writes <- t.writes + 1;
  store_word t addr v

let poke t addr v = store_word t addr v

let load_image t image = List.iter (fun (a, v) -> poke t a v) image

let reads t = t.reads
let writes t = t.writes

let dump t =
  Hashtbl.fold
    (fun id p acc ->
      let base = id * page_words in
      let acc = ref acc in
      for slot = page_words - 1 downto 0 do
        if Char.code (Bytes.get p.present (slot lsr 3)) land (1 lsl (slot land 7)) <> 0
        then acc := (base + slot, p.values.(slot)) :: !acc
      done;
      !acc)
    t.pages []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Latency tiers.

   A hierarchy is a list of address-range classes in ascending order:
   tier [i] covers every address below [tier_limit i] not covered by an
   earlier tier, and the last tier's limit is forced to [max_int] so
   the classification is total (negative addresses fall into tier 0 —
   harness-level probes, never produced by a validated program). *)

type tier = { tier_name : string; tier_limit : int; tier_latency : int }

type hierarchy = tier array

let tiered tiers =
  if tiers = [] then Fmt.invalid_arg "Memory.tiered: empty hierarchy";
  List.iter
    (fun t ->
      if t.tier_latency < 0 then
        Fmt.invalid_arg "Memory.tiered: tier %S has negative latency"
          t.tier_name)
    tiers;
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      if a.tier_limit >= b.tier_limit then
        Fmt.invalid_arg
          "Memory.tiered: tier limits must be strictly ascending (%S: %d >= \
           %S: %d)"
          a.tier_name a.tier_limit b.tier_name b.tier_limit;
      ascending rest
    | _ -> ()
  in
  ascending tiers;
  let arr = Array.of_list tiers in
  let last = Array.length arr - 1 in
  arr.(last) <- { arr.(last) with tier_limit = max_int };
  arr

let flat ~latency =
  tiered [ { tier_name = "flat"; tier_limit = max_int; tier_latency = latency } ]

(* Scratch / SRAM / SDRAM: the IXP-style three-level split. *)
let scratch_sram_sdram ~scratch_words ~sram_words ~scratch_latency ~sram_latency
    ~sdram_latency =
  tiered
    [
      { tier_name = "scratch"; tier_limit = scratch_words;
        tier_latency = scratch_latency };
      { tier_name = "sram"; tier_limit = scratch_words + sram_words;
        tier_latency = sram_latency };
      { tier_name = "sdram"; tier_limit = max_int; tier_latency = sdram_latency };
    ]

(* Binary search over the strictly ascending [tier_limit]s: the answer
   is the first tier whose limit exceeds [addr], and the last tier
   (limit forced to [max_int] by {!tiered}) catches everything else —
   including [addr = max_int], which no strict [<] can place earlier,
   matching the linear scan's [i = n - 1] terminal case. This is the
   per-load/store hot path once a machine carries a hierarchy, so it
   must not degrade with tier count. *)
let tier_index h addr =
  let lo = ref 0 and hi = ref (Array.length h - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if addr < h.(mid).tier_limit then hi := mid else lo := mid + 1
  done;
  !lo

let latency h addr = h.(tier_index h addr).tier_latency
let tier_of h addr = h.(tier_index h addr)
let tiers h = Array.to_list h
