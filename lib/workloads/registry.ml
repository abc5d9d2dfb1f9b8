(* Registry of the benchmark suite: the 11 kernels of the paper's
   Table 1, from CommBench, NetBench, the Intel example code, and the
   WRAPS scheduler [18]. *)

let all : Workload.spec list =
  [
    Kernel_md5.spec;
    Kernel_fir2dim.spec;
    Kernel_frag.spec;
    Kernel_crc32.spec;
    Kernel_drr.spec;
    Kernel_url.spec;
    Kernel_route.spec;
    Kernel_l2l3fwd.spec_rx;
    Kernel_l2l3fwd.spec_tx;
    Kernel_wraps.spec_rx;
    Kernel_wraps.spec_tx;
  ]

let find id =
  List.find_opt (fun s -> s.Workload.id = id) all

let find_exn id =
  match find id with
  | Some s -> s
  | None -> Fmt.invalid_arg "unknown workload %S" id

let ids () = List.map (fun s -> s.Workload.id) all

(* Chain-role views: chain scenarios are assembled from these instead
   of hard-coded kernel names, so a new kernel joins the chain pool by
   tagging its spec. *)
let by_role role = List.filter (fun s -> s.Workload.role = role) all

(* Rx/Tx kernels pair into families by the id stem before the
   "_rx"/"_tx" suffix (l2l3fwd, wraps); an rx kernel without a matching
   tx (or vice versa) simply forms no family. *)
let chain_families () =
  let stem id suffix =
    if Filename.check_suffix id suffix then
      Some (String.sub id 0 (String.length id - String.length suffix))
    else None
  in
  List.filter_map
    (fun rx ->
      match stem rx.Workload.id "_rx" with
      | None -> None
      | Some family ->
        List.find_opt
          (fun tx ->
            tx.Workload.role = Workload.Tx
            && stem tx.Workload.id "_tx" = Some family)
          (by_role Workload.Tx)
        |> Option.map (fun tx -> (family, rx, tx)))
    (by_role Workload.Rx)

(* Instantiates a workload on its own memory region: instance [slot]
   occupies [slot * instance_size ..]. *)
let instantiate ?iters spec ~slot =
  let iters = Option.value iters ~default:spec.Workload.default_iters in
  spec.Workload.build ~mem_base:(slot * Workload.instance_size) ~iters

(* ------------------------------------------------------------------ *)
(* Default traffic specs.

   Periods are tuned against the contended cycles/iteration each kernel
   shows in the Table-3 runs so that, at 2 iterations per packet, the
   heavy kernels (md5, the wraps pair) are offered more load than they
   can serve — the operating point where throughput measures service
   speed and the balanced allocator's spill elimination shows up as
   packets/cycle — while the light kernels sit near saturation. *)

let default_traffic_table : (string * Workload.traffic_spec) list =
  let spec arrival =
    { Workload.arrival; queue_capacity = 8; per_packet_iters = 2 }
  in
  [
    ("md5", spec (Workload.Uniform { period = 2000 }));
    ("fir2dim", spec (Workload.Poisson { mean_period = 1200 }));
    ("frag", spec (Workload.Poisson { mean_period = 600 }));
    ("crc32", spec (Workload.Poisson { mean_period = 500 }));
    ("drr", spec (Workload.Uniform { period = 600 }));
    ("url", spec (Workload.Poisson { mean_period = 700 }));
    ("route", spec (Workload.Uniform { period = 700 }));
    ("l2l3fwd_rx", spec (Workload.Uniform { period = 1200 }));
    ("l2l3fwd_tx", spec (Workload.Uniform { period = 1100 }));
    ( "wraps_rx",
      spec (Workload.Bursty { on_cycles = 4000; off_cycles = 4000; period = 400 })
    );
    ( "wraps_tx",
      spec
        (Workload.Bursty { on_cycles = 4000; off_cycles = 4000; period = 1000 })
    );
  ]

let default_traffic id = List.assoc_opt id default_traffic_table

(* ------------------------------------------------------------------ *)
(* Systems: the one place the multi-kernel layout is decided. Kernel [i]
   of a list sits at slot [i] — its own [instance_size] region, spill
   area at the tail — and the system's memory image is the slot-order
   concatenation of the kernels' images. *)

type system = {
  workloads : Workload.t list;
  progs : Npra_ir.Prog.t list;
  mem_image : (int * int) list;
  spill_bases : int list;
}

let system_of ws =
  {
    workloads = ws;
    progs = List.map (fun w -> w.Workload.prog) ws;
    mem_image = List.concat_map (fun w -> w.Workload.mem_image) ws;
    spill_bases = List.map Workload.spill_base ws;
  }

let system ?iters specs =
  system_of (List.mapi (fun slot spec -> instantiate ?iters spec ~slot) specs)

(* Each kernel at its default traffic model's per-packet iteration
   count, paired (in slot order) with that model. *)
let traffic_system specs =
  let traffic =
    List.map
      (fun spec ->
        match default_traffic spec.Workload.id with
        | Some t -> t
        | None -> Fmt.invalid_arg "no traffic model for workload %S" spec.id)
      specs
  in
  ( system_of
      (List.mapi
         (fun slot (spec, t) ->
           instantiate ~iters:t.Workload.per_packet_iters spec ~slot)
         (List.combine specs traffic)),
    traffic )

(* The per-service payload refresh of a traffic run over [sys]: thread
   [i]'s fresh words land in kernel [i]'s input buffer. *)
let refresh sys ~seed =
  let ws = Array.of_list sys.workloads in
  fun ~engine ~thread ~seq ->
    Workload.refresh ~seed ~engine ~thread ~seq ws.(thread)
