(* A small firewall module written in NPC, the C-subset frontend —
   the workflow of the paper's "HLL compiler" users: write threads in
   C-like source, let the compiler balance registers across them.

   Thread [filter] screens packet headers against two rules and
   forwards accepted packets; thread [audit] keeps rolling statistics.
   The filter's header fields stay live across its loads (private
   registers); the audit thread's scratch values never cross a switch
   (shared registers).

   Run with:  dune exec examples/npc_firewall.exe *)

open Npra_core

let source =
  {|
  // Screen four packets: drop if protocol == 6 and port < 1024,
  // else forward the header and bump the accept counter.
  thread filter {
    var in_ring = 1000;
    var out_ring = 2000;
    var accepted = 0;
    var n = 4;
    while (n > 0) {
      var proto = mem[in_ring];
      var port = mem[in_ring + 1];
      var len = mem[in_ring + 2];
      var drop = proto == 6 && port < 1024;
      if (!drop) {
        mem[out_ring] = proto;
        mem[out_ring + 1] = port;
        mem[out_ring + 2] = len;
        out_ring = out_ring + 3;
        accepted = accepted + 1;
      }
      in_ring = in_ring + 3;
      n = n - 1;
    }
    mem[2999] = accepted;
  }

  // Rolling byte statistics over the same ring, on its own thread.
  thread audit {
    var ring = 1000;
    var total = 0;
    var peak = 0;
    var n = 4;
    while (n > 0) {
      yield;
      var len = mem[ring + 2];
      total = total + len;
      if (len > peak) { peak = len; }
      ring = ring + 3;
      n = n - 1;
    }
    mem[3000] = total;
    mem[3001] = peak;
  }
|}

let () =
  let progs = Npra_npc.Npc.compile_exn source in
  Fmt.pr "compiled threads: %s@.@."
    (String.concat ", " (List.map (fun p -> p.Npra_ir.Prog.name) progs));

  (* Four packets: (proto, port, len) triples. Packets 2 and 3 violate
     the rule (TCP to privileged ports) and must be dropped. *)
  let packets = [ (17, 5353, 120); (6, 443, 400); (6, 22, 64); (6, 8080, 900) ] in
  let mem_image =
    List.concat
      (List.mapi
         (fun i (p, q, l) -> [ (1000 + (3 * i), p); (1001 + (3 * i), q); (1002 + (3 * i), l) ])
         packets)
  in

  let bal = Pipeline.balanced_exn ~nreg:16 progs in
  Option.iter (Fmt.pr "%a" Npra_regalloc.Inter.pp) bal.Pipeline.inter;
  assert (bal.Pipeline.verify_errors = []);

  let machine = Npra_sim.Machine.run ~mem_image bal.Pipeline.programs in
  let report = Npra_sim.Machine.report machine in
  Fmt.pr "@.%a@." Npra_sim.Machine.pp_report report;

  let mem = Npra_sim.Machine.memory machine in
  Fmt.pr "accepted packets: %d (expected 2)@."
    (Npra_sim.Memory.peek mem 2999);
  Fmt.pr "audited bytes:    %d (expected 1484)@."
    (Npra_sim.Memory.peek mem 3000);
  Fmt.pr "peak length:      %d (expected 900)@." (Npra_sim.Memory.peek mem 3001);
  if
    Npra_sim.Memory.peek mem 2999 = 2
    && Npra_sim.Memory.peek mem 3000 = 1484
    && Npra_sim.Memory.peek mem 3001 = 900
    && Pipeline.differential ~mem_image progs bal.Pipeline.programs
  then Fmt.pr "all checks passed@."
  else begin
    Fmt.pr "CHECKS FAILED@.";
    exit 1
  end
