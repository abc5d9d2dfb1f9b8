(* In-memory span recorder for the traced replay.

   A span is one timed call into a layer: name, start, end, the span
   that caused it (its parent) and the operation it belongs to (a mix
   or a chip cell). Callbacks that the library invokes thousands of
   times per operation — payload refresh, the adaptive controller — are
   not recorded one by one; their time is accumulated on the enclosing
   span under the callback's layer name, so a layer's self time is its
   span durations minus everything attributed to its children.

   Everything stays in memory until [write_chrome] emits Chrome
   trace-event JSON at the end of the run. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  op : int;
  t0 : float;
  t1 : float;
}

(* An open span and the time its children have taken so far. *)
type frame = { f_id : int; mutable f_child : float }

(* A callback layer's running totals. *)
type counter = { mutable c_s : float; mutable c_calls : int }

type t = {
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : frame list;  (* innermost first *)
  child_time : (int, float) Hashtbl.t;  (* closed span id -> child time *)
  accum : (string, counter) Hashtbl.t;
}

let now = Unix.gettimeofday

let create () =
  {
    origin = now ();
    spans = [];
    next_id = 0;
    stack = [];
    child_time = Hashtbl.create 256;
    accum = Hashtbl.create 8;
  }

let charge_parent t dt =
  match t.stack with [] -> () | p :: _ -> p.f_child <- p.f_child +. dt

let span t ~op name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with [] -> -1 | p :: _ -> p.f_id in
  let frame = { f_id = id; f_child = 0. } in
  t.stack <- frame :: t.stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    charge_parent t (t1 -. t0);
    Hashtbl.replace t.child_time id frame.f_child;
    t.spans <- { id; name; parent; op; t0; t1 } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let counter t name =
  match Hashtbl.find_opt t.accum name with
  | Some c -> c
  | None ->
    let c = { c_s = 0.; c_calls = 0 } in
    Hashtbl.add t.accum name c;
    c

(* Time one callback invocation and bill it to the counter [c] and, as
   child time, to the innermost open span. Two clock reads and two
   field updates: callbacks fire hundreds of thousands of times. *)
let callback t c f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  charge_parent t dt;
  c.c_s <- c.c_s +. dt;
  c.c_calls <- c.c_calls + 1;
  v

let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

let self_time t s =
  duration s -. Option.value (Hashtbl.find_opt t.child_time s.id) ~default:0.

(* Per-layer self time in seconds, spans and callbacks together, in
   first-seen order. *)
let layer_self t =
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  let add name dt =
    match Hashtbl.find_opt tbl name with
    | Some v -> Hashtbl.replace tbl name (v +. dt)
    | None ->
      order := name :: !order;
      Hashtbl.add tbl name dt
  in
  List.iter (fun s -> add s.name (self_time t s)) (spans t);
  Hashtbl.iter (fun name c -> add name c.c_s) t.accum;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let total_of t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. (spans t)

let callback_stats t name =
  match Hashtbl.find_opt t.accum name with
  | Some c -> (c.c_s, c.c_calls)
  | None -> (0., 0)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event format: one complete ("X") event per span, times
   in microseconds from the recorder's creation; callback totals go in
   the metadata block. Loadable in chrome://tracing and Perfetto. *)
let write_chrome t ~path ~workload =
  let oc = open_out path in
  let us x = (x -. t.origin) *. 1e6 in
  Printf.fprintf oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"op\": %d, \"id\": %d, \
         \"parent\": %d}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string workload) (us s.t0)
        ((s.t1 -. s.t0) *. 1e6)
        s.op s.id s.parent)
    (spans t);
  Printf.fprintf oc "],\n\"otherData\": {\"workload\": %s" (json_string workload);
  Hashtbl.iter
    (fun name c ->
      Printf.fprintf oc ", %s: {\"ms\": %.3f, \"calls\": %d}" (json_string name)
        (c.c_s *. 1e3) c.c_calls)
    t.accum;
  Printf.fprintf oc "}}\n";
  close_out oc
