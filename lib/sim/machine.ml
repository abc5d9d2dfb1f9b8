(* Cycle-level model of one multithreaded processing unit.

   The model follows the paper's architecture (§1.1, §2):

   - up to [Nthd] non-preemptive hardware threads share one ALU and one
     register file of [nreg] general-purpose registers;
   - every instruction takes one cycle;
   - [load]/[store] relinquish the PU while the access is in flight
     ([mem_latency] cycles flat, or the address's tier latency under a
     {!Memory.hierarchy}; no cache); a load's destination register is
     written back only when the thread is dispatched again (the
     transfer-register rule — this is what makes unsafe register sharing
     observable as corruption, which the tests rely on);
   - [ctx_switch] yields voluntarily; only the PC is preserved;
   - dispatching a different thread costs [ctx_switch_cost] cycles;
   - scheduling is round-robin over ready threads.

   Programs must be fully physical; running a virtual register trips a
   structured {!Stuck} trap.

   Corruption sentinel
   -------------------

   The paper's safety invariant — a value live across a context switch
   must sit in its thread's private block — is enforced statically by
   [Npra_regalloc.Verify]. With the sentinel armed, this machine also
   enforces it dynamically: it tracks, for every physical register, the
   last thread that wrote it and the cycle of that write. The moment a
   thread *reads* a register that another thread overwrote across its
   switch, the machine traps with a structured {!corruption} diagnostic
   naming the register, both threads and the clobbering cycle — instead
   of silently computing garbage.

   The diagnostic's victim value (what the reader held at its last
   switch) costs nothing at a switch: a yield only bumps the thread's
   switch epoch, and each write stamps the register with its writer's
   epoch. A write to a register whose owner wrote it in an earlier
   epoch displaces the value that owner held at its latest switch, so
   the value is recorded then, stamped with the owner's current epoch.
   A trap reports it iff the stamp is still the reader's epoch.

   The rule is sound for this machine: threads never communicate through
   registers, and in a safe allocation every read of a shared register is
   dominated by a write of the same thread within the same non-switch
   region (otherwise the value would be live across a switch in the
   shared block). Since the PU is non-preemptive, no other thread can
   have intervened, so on a safe allocation the sentinel never fires.

   The same argument bounds where a read can trap at all: only on a
   register the thread reads before writing it in the non-switch region
   it resumes in, and that set is static. Each {!image} lists it per
   instruction (the guard), and a burst whose guard finds every such
   register unwritten or the thread's own skips its read checks
   altogether, claiming only its writes. *)

open Npra_ir

type config = {
  nreg : int;
  mem_latency : int;
  ctx_switch_cost : int;
  max_cycles : int;
  tiers : Memory.hierarchy option;
      (* address-range latency classes; [None] keeps the classic flat
         [mem_latency] charge on every access *)
}

let default_config =
  {
    nreg = 128;
    mem_latency = 20;
    ctx_switch_cost = 1;
    max_cycles = 100_000_000;
    tiers = None;
  }

(* ------------------------------------------------------------------ *)
(* Structured traps.                                                   *)

type corruption = {
  corrupt_reg : int;  (* physical register that was clobbered *)
  reader : int;  (* thread that observed the foreign value *)
  reader_name : string;
  clobberer : int;  (* thread whose write clobbered it *)
  clobberer_name : string;
  clobber_cycle : int;  (* cycle of the clobbering write *)
  read_cycle : int;  (* cycle the stale read trapped *)
  victim_value : int option;
      (* value the reader held in the register at its last context
         switch, if it owned the register then *)
  observed_value : int;  (* foreign value the read would have returned *)
}

type thread_state_view =
  | Runnable
  | Waiting of int  (* blocked on memory until the given cycle *)
  | Completed of int  (* halted at the given cycle *)

type thread_status = {
  st_thread : int;
  st_name : string;
  st_pc : int;
  st_state : thread_state_view;
}

type stuck =
  | Not_physical of { thread : string; reg : Reg.t }
      (* a program still contains virtual registers at [create] *)
  | Virtual_operand of { reg : Reg.t }
      (* defensive: a virtual register reached execution *)
  | Out_of_file of { reg : int; nreg : int }
      (* a register index outside the register file was accessed *)
  | Cycle_limit of { limit : int; threads : thread_status list }
      (* execution consumed the whole cycle budget while still runnable *)
  | Deadlock of { limit : int; threads : thread_status list }
      (* every thread is permanently parked: done or blocked past the
         cycle budget — no thread can run again *)

exception Stuck of stuck
exception Corruption of corruption
(* raised by the sentinel in [`Trap] mode *)

let pp_corruption ppf c =
  Fmt.pf ppf
    "register r%d: thread %d (%s) read a value thread %d (%s) overwrote at \
     cycle %d across its context switch (read at cycle %d, observed %d%a)"
    c.corrupt_reg c.reader c.reader_name c.clobberer c.clobberer_name
    c.clobber_cycle c.read_cycle c.observed_value
    Fmt.(option (fun ppf v -> Fmt.pf ppf ", expected %d" v))
    c.victim_value

let pp_thread_state ppf = function
  | Runnable -> Fmt.pf ppf "runnable"
  | Waiting c -> Fmt.pf ppf "blocked until cycle %d" c
  | Completed c -> Fmt.pf ppf "halted at cycle %d" c

let pp_thread_status ppf s =
  Fmt.pf ppf "thread %d (%s) pc=%d: %a" s.st_thread s.st_name s.st_pc
    pp_thread_state s.st_state

let pp_stuck ppf = function
  | Not_physical { thread; reg } ->
    Fmt.pf ppf "program %s has virtual registers (%a)" thread Reg.pp reg
  | Virtual_operand { reg } ->
    Fmt.pf ppf "virtual register %a executed" Reg.pp reg
  | Out_of_file { reg; nreg } ->
    Fmt.pf ppf "register r%d outside the %d-register file" reg nreg
  | Cycle_limit { limit; threads } ->
    Fmt.pf ppf "exceeded %d cycles while runnable:@.%a" limit
      Fmt.(list ~sep:(any "@.") (fun ppf s -> Fmt.pf ppf "  %a" pp_thread_status s))
      threads
  | Deadlock { limit; threads } ->
    Fmt.pf ppf
      "deadlock: every thread is permanently blocked within the %d-cycle \
       budget:@.%a"
      limit
      Fmt.(list ~sep:(any "@.") (fun ppf s -> Fmt.pf ppf "  %a" pp_thread_status s))
      threads

(* ------------------------------------------------------------------ *)

(* Constant constructors only, so a status test is an integer compare
   and a status change allocates nothing; the cycle a [Blocked] or
   [Done] thread carries sits in [thread.until]. *)
type status = Ready | Blocked | Done

type thread = {
  id : int;
  prog : Prog.t;
  mutable pc : int;
  mutable status : status;
  mutable until : int;
      (* [Blocked]: the cycle the memory access completes; [Done]: the
         completion cycle *)
  mutable instrs : int;
  mutable ctx_events : int;
  mutable loads : int;
  mutable stores : int;
  mutable moves : int;
  mutable wb_reg : int;
  mutable wb_value : int;
      (* a load's destination register (by file index; -1 = none) and
         value, applied only when the thread is dispatched again — the
         transfer-register rule *)
  mutable store_trace_rev : (int * int) list;
      (* only when the machine's [record_stores] *)
  mutable store_digest : int;  (* [digest_store] over every store *)
  mutable ready_since : int;  (* cycle the thread last became runnable *)
  mutable wait_cycles : int;  (* runnable but not running *)
}

type timeline_event =
  | Dispatched
  | Blocked_on_memory
  | Yielded
  | Halted

type sentinel_mode = [ `Off | `Trap ]

type engine = [ `Legacy | `Soa ]

(* One program set, decoded once. Every thread's decoded quads are
   concatenated into machine-wide flat code rows, indexed through a
   per-thread base row; each thread's range ends in one fetch-fault
   quad, so the burst fetches without a bounds test. An image is never
   mutated after {!image} returns, so any number of machines, on any
   domain, share it; together with a machine's register row it is the
   whole working set of the burst. The per-thread pc and status stay in
   the machine's [thread] records: [park_thread]/[restart_thread]/
   [swap_programs] mutate them between slices, and the burst holds them
   in locals for the duration of a slice.

   With the sentinel armed an image carries two rows and a guard table:

   - the checked row flags every quad that touches a register, so the
     burst checks each access as [step_legacy] does;
   - the claim row flags only quads with an operand outside the file;
     the in-file writes carry [claiming] instead, so the burst does the
     sentinel's write bookkeeping inline and skips every read check;
   - the guard table lists, per quad, the registers that may be read
     before they are written from that quad up to the next segment end
     (load, store, [ctx_switch], halt or the fetch fault).

   Only the running thread writes during a burst, and a burst ends at a
   segment end, so a read in it traps only on a register in the guard
   set of the quad it entered at: when none of those has a foreign
   owner, the claim row runs the burst with the same outcome as the
   checked row. *)
type image = {
  i_config : config;
  i_armed : bool;
  i_progs : Prog.t array;
  i_base : int array;  (* per thread: first word in the rows *)
  i_checked : int array;  (* the checked row (the only row when disarmed) *)
  i_claim : int array;  (* the claim row; [i_checked] itself when disarmed *)
  i_guard_at : int array;
      (* per quad: its guard set is [i_guard.(i_guard_at.(q))] up to
         [i_guard.(i_guard_at.(q + 1) - 1)]; empty when disarmed *)
  i_guard : int array;  (* register indices *)
  i_live_in : Reg.Set.t array option Atomic.t;
      (* per program: the physical registers live at entry, which a
         hot-swap must find empty; worked out at the image's first swap,
         since most images never swap (domains racing there store equal
         sets) *)
}

type sentinel = {
  owner : int array;  (* last writer thread per register; -1 = unwritten *)
  owner_cycle : int array;  (* cycle of that write *)
  owner_epoch : int array;  (* the writer's switch epoch at that write *)
  epoch : int array;  (* per thread: context switches so far *)
  disp_value : int array array;
      (* per thread and register: the value the thread held there at a
         switch, recorded when a later write displaced it *)
  disp_epoch : int array array;
      (* the record's stamp: the thread's epoch when it was recorded,
         i.e. the one that switch began; -1 = none *)
}

type t = {
  config : config;
  engine : engine;
  regs : int array;
  mem : Memory.t;
  threads : thread array;
  mutable cycle : int;
  mutable dispatches : int;
  mutable busy_cycles : int;  (* cycles spent executing instructions *)
  mutable switch_cycles : int;  (* context-switch overhead *)
  record_timeline : bool;
  mutable timeline_rev : (int * int * timeline_event) list;
      (* (cycle, thread, event) — only when [record_timeline] *)
  record_stores : bool;
      (* set by the entry point: [create] records every thread's store
         trace for the differential tests, [instantiate] (the traffic
         engines' shared images) records none *)
  sentinel : sentinel option;
  (* Scheduler state lives in [t] so execution is re-entrant: a
     dispatcher can advance the machine in bounded slices with
     [run_until], restart completed threads between slices, and resume
     without losing round-robin fairness or switch-cost accounting. *)
  mutable holder : int;  (* thread currently holding the PU; -1 = none *)
  mutable rr_from : int;  (* round-robin search origin when idle *)
  mutable last_yielder : int;
      (* thread whose yield the next dispatch follows (-1 = none);
         charging the context-switch cost is deferred to that dispatch
         so a bounded run can pause at the yield point *)
  mutable stalled_until : int;
      (* chaos-injected hang: while [cycle < stalled_until] a bounded
         run advances the clock but retires nothing — the observable a
         dispatcher-level watchdog detects *)
  mutable image : image;  (* the running programs; replaced at a swap *)
}

let state_view th =
  match th.status with
  | Ready -> Runnable
  | Blocked -> Waiting th.until
  | Done -> Completed th.until

let status_view th =
  {
    st_thread = th.id;
    st_name = th.prog.Prog.name;
    st_pc = th.pc;
    st_state = state_view th;
  }

let statuses t = Array.to_list (Array.map status_view t.threads)

(* ------------------------------------------------------------------ *)
(* Pre-decoded program form.

   The [`Soa] engine flattens each program into an immutable int array
   of four words per instruction — [op; f1; f2; f3] — with register
   operands resolved to file indices and branch targets to instruction
   indices (sound because {!Prog.make} validates every target). The
   burst on this form touches no lists, closures or label tables and
   allocates nothing; it exists because [Prog.label_index] is an
   O(labels) assoc walk per executed branch and [Instr.t]'s boxed
   operands cost a pointer chase per operand per cycle.

   Opcode map: 0–7 ALU with register src2 and 8–15 with immediate src2
   (low three bits: {!alu_code}); 16 mov, 17 movi, 18 load, 19 store,
   20 br; 21–26 brc with register src2 and 27–32 with immediate
   (offset by {!cond_code}); 33 ctx_switch, 34 nop,
   35 halt; 36 the fetch fault that ends each thread's range. A flagged
   quad carries its opcode plus [flagged]. *)

let alu_code = function
  | Instr.Add -> 0 | Instr.Sub -> 1 | Instr.And -> 2 | Instr.Or -> 3
  | Instr.Xor -> 4 | Instr.Shl -> 5 | Instr.Shr -> 6 | Instr.Mul -> 7

let cond_code = function
  | Instr.Eq -> 0 | Instr.Ne -> 1 | Instr.Lt -> 2 | Instr.Ge -> 3
  | Instr.Gt -> 4 | Instr.Le -> 5

(* Register number without a file-bounds check: flagged quads are
   checked at access time (like the legacy engine), so [Out_of_file]
   traps on the same cycle under both engines. [create] has already
   rejected non-physical programs. *)
let rnum = function
  | Reg.P n -> n
  | Reg.V _ as r -> raise (Stuck (Virtual_operand { reg = r }))

let decode prog =
  let n = Prog.length prog in
  (* Branch targets resolve through a table built once per program: the
     per-branch [Prog.label_index] assoc walk made decoding O(n *
     labels), which dominated machine construction on spill-heavy
     allocator output (hundreds of spill-path labels). *)
  let ltab = Hashtbl.create 32 in
  List.iter (fun (l, i) -> Hashtbl.replace ltab l i) prog.Prog.labels;
  let tgt l =
    match Hashtbl.find_opt ltab l with
    | Some i -> i
    | None -> Prog.label_index prog l  (* unreachable: {!Prog.make} validated *)
  in
  let code = Array.make (4 * n) 0 in
  for i = 0 to n - 1 do
    let base = 4 * i in
    let set op a b c =
      code.(base) <- op;
      code.(base + 1) <- a;
      code.(base + 2) <- b;
      code.(base + 3) <- c
    in
    match Prog.instr prog i with
    | Instr.Alu { op; dst; src1; src2 = Instr.Reg r } ->
      set (alu_code op) (rnum dst) (rnum src1) (rnum r)
    | Instr.Alu { op; dst; src1; src2 = Instr.Imm k } ->
      set (8 + alu_code op) (rnum dst) (rnum src1) k
    | Instr.Mov { dst; src } -> set 16 (rnum dst) (rnum src) 0
    | Instr.Movi { dst; imm } -> set 17 (rnum dst) imm 0
    | Instr.Load { dst; addr; off } -> set 18 (rnum dst) (rnum addr) off
    | Instr.Store { src; addr; off } -> set 19 (rnum src) (rnum addr) off
    | Instr.Br { target } -> set 20 (tgt target) 0 0
    | Instr.Brc { cond; src1; src2 = Instr.Reg r; target } ->
      set (21 + cond_code cond) (rnum src1) (rnum r) (tgt target)
    | Instr.Brc { cond; src1; src2 = Instr.Imm k; target } ->
      set (27 + cond_code cond) (rnum src1) k (tgt target)
    | Instr.Ctx_switch -> set 33 0 0 0
    | Instr.Nop -> set 34 0 0 0
    | Instr.Halt -> set 35 0 0 0
  done;
  code

(* How many quad words after the opcode hold register numbers: they
   are always words 1 to [reg_words op]; the others are immediates,
   offsets, or branch targets. *)
let reg_words op =
  if op < 8 then 3
  else if op < 17 then 2 (* ALU with immediate, mov *)
  else if op = 17 then 1 (* movi *)
  else if op < 20 then 2 (* load, store *)
  else if op = 20 then 0 (* br *)
  else if op < 27 then 2 (* brc with register *)
  else if op < 33 then 1 (* brc with immediate *)
  else 0

let quad_regs_ok ~nreg code w =
  let rec ok k =
    k = 0 || (code.(w + k) >= 0 && code.(w + k) < nreg && ok (k - 1))
  in
  ok (reg_words code.(w))

(* A quad whose register accesses the burst must check carries its
   opcode plus [flagged]: in every row each quad with a register operand
   outside the file, and in the checked row of an armed image every
   quad that touches a register (ALU, mov, movi, load, store, brc). In
   the claim row an in-file quad that writes a register (ALU, mov, movi,
   opcodes below 18, whose destination is word 1) carries its opcode
   plus [claiming] instead: the burst claims the destination for the
   sentinel inline and runs the quad with its reads unchecked. *)
let flagged = 64
let claiming = 128

let touches_regs op = op < 20 || (op >= 21 && op < 33)

(* The registers (non-negative numbers) one thread's quads name, in
   ascending order, and the bit numbering over them. *)
let thread_regs code ~q0 ~len =
  let seen = Hashtbl.create 32 in
  for i = 0 to len do
    let w = 4 * (q0 + i) in
    for k = 1 to reg_words (code.(w) land (flagged - 1)) do
      if code.(w + k) >= 0 then Hashtbl.replace seen code.(w + k) ()
    done
  done;
  let regs =
    Array.of_list (List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)))
  in
  let bit =
    Array.make (if regs = [||] then 0 else regs.(Array.length regs - 1) + 1) 0
  in
  Array.iteri (fun b n -> bit.(n) <- b) regs;
  (regs, bit)

(* Registers that one thread may read before writing them, per quad,
   from a backward dataflow to a fixed point over the thread's quads
   [q0] to [q0 + len] (the last one its fetch fault) of any row (flags
   are masked off): a quad's set is what it reads, plus what its
   successors' sets hold that it does not write. With [~segments:true]
   these are the guard sets: load, store, [ctx_switch], halt and the
   fetch fault end a segment and have no successors ([nop] and [br] do
   not), a load's destination is written at the next dispatch, after
   its segment ends, and registers outside the file are left out, since
   the quads naming them are checked in every row. With
   [~segments:false] it is plain liveness: only halt and the fetch fault
   end the flow, a load writes its destination, and every register
   counts — the set at quad [q0] is the program's entry live-in.

   Sets are bit rows over the thread's own registers: returns those
   registers, ascending, the row width [nw] in 63-bit words, and the
   rows, [nw] words per quad, bit [b] standing for [regs.(b)]. *)
let rbw_rows ~segments ~nreg code ~q0 ~len =
  let regs, bit = thread_regs code ~q0 ~len in
  let nw = (Array.length regs + 62) / 63 in
  let live = Array.make ((len + 1) * nw) 0 in
  let next = Array.make nw 0 in
  let counts n = n >= 0 && ((not segments) || n < nreg) in
  let add n =
    if counts n then
      let b = bit.(n) in
      next.(b / 63) <- next.(b / 63) lor (1 lsl (b mod 63))
  in
  let from j =
    for k = 0 to nw - 1 do
      next.(k) <- next.(k) lor live.((j * nw) + k)
    done
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = len downto 0 do
      let w = 4 * (q0 + i) in
      let op = code.(w) land (flagged - 1) in
      Array.fill next 0 nw 0;
      if op < 18 || op = 34 then from (i + 1)
      else if op < 20 || op = 33 then (if not segments then from (i + 1))
      else if op = 20 then from code.(w + 1)
      else if op < 33 then begin
        from (i + 1);
        from code.(w + 3)
      end;
      (* the write (word 1), then the reads before it *)
      (if op < 18 || (op = 18 && not segments) then
         let n = code.(w + 1) in
         if counts n then
           let b = bit.(n) in
           next.(b / 63) <- next.(b / 63) land lnot (1 lsl (b mod 63)));
      if op < 8 then begin
        add code.(w + 2);
        add code.(w + 3)
      end
      else if op < 17 || op = 18 then add code.(w + 2)
      else if op = 19 || (op >= 21 && op < 27) then begin
        add code.(w + 1);
        add code.(w + 2)
      end
      else if op >= 27 && op < 33 then add code.(w + 1);
      for k = 0 to nw - 1 do
        if next.(k) <> live.((i * nw) + k) then begin
          live.((i * nw) + k) <- next.(k);
          changed := true
        end
      done
    done
  done;
  (regs, nw, live)

let row_has live ~nw i b =
  live.((i * nw) + (b / 63)) land (1 lsl (b mod 63)) <> 0

let image ?(config = default_config) ?(sentinel = `Off) progs =
  List.iter
    (fun p ->
      if not (Prog.all_physical p) then
        let reg = Reg.Set.min_elt (Prog.vregs p) in
        raise (Stuck (Not_physical { thread = p.Prog.name; reg })))
    progs;
  let nreg = config.nreg and armed = sentinel = `Trap in
  let progs = Array.of_list progs in
  let codes = Array.map decode progs in
  let total = Array.fold_left (fun a c -> a + Array.length c + 4) 0 codes in
  let code = Array.make total 0 in
  let base = Array.make (Array.length progs) 0 in
  let off = ref 0 in
  Array.iteri
    (fun i c ->
      let len = Array.length c in
      base.(i) <- !off;
      Array.blit c 0 code !off len;
      code.(!off + len) <- 36;
      off := !off + len + 4)
    codes;
  let nq = total / 4 in
  let claim =
    if not armed then [||]
    else begin
      let claim = Array.copy code in
      for q = 0 to nq - 1 do
        let w = 4 * q in
        if not (quad_regs_ok ~nreg code w) then claim.(w) <- code.(w) + flagged
        else if code.(w) < 18 then claim.(w) <- code.(w) + claiming
      done;
      claim
    end
  in
  (* the checked row, flagged in place *)
  for q = 0 to nq - 1 do
    let w = 4 * q in
    if (armed && touches_regs code.(w)) || not (quad_regs_ok ~nreg code w) then
      code.(w) <- code.(w) + flagged
  done;
  let guard_at, guard =
    if not armed then ([||], [||])
    else begin
      (* each quad's set, in register order, one after the other *)
      let guard_at = Array.make (nq + 1) 0 and count = ref 0 in
      let chunks =
        Array.mapi
          (fun i c ->
            let q0 = base.(i) / 4 and len = Array.length c / 4 in
            let regs, nw, rows = rbw_rows ~segments:true ~nreg code ~q0 ~len in
            let chunk = Array.make ((len + 1) * Array.length regs) 0 in
            let k = ref 0 in
            for j = 0 to len do
              guard_at.(q0 + j) <- !count + !k;
              Array.iteri
                (fun b n ->
                  if row_has rows ~nw j b then begin
                    chunk.(!k) <- n;
                    incr k
                  end)
                regs
            done;
            count := !count + !k;
            Array.sub chunk 0 !k)
          codes
      in
      guard_at.(nq) <- !count;
      (guard_at, Array.concat (Array.to_list chunks))
    end
  in
  {
    i_config = config;
    i_armed = armed;
    i_progs = progs;
    i_base = base;
    i_checked = code;
    i_claim = (if armed then claim else code);
    i_guard_at = guard_at;
    i_guard = guard;
    i_live_in = Atomic.make None;
  }

(* The entry live-in sets, worked out once per image. *)
let live_in_sets img =
  match Atomic.get img.i_live_in with
  | Some sets -> sets
  | None ->
    let sets =
      Array.mapi
        (fun i prog ->
          let regs, nw, live =
            rbw_rows ~segments:false ~nreg:img.i_config.nreg img.i_checked
              ~q0:(img.i_base.(i) / 4) ~len:(Prog.length prog)
          in
          let s = ref Reg.Set.empty in
          Array.iteri
            (fun b n -> if row_has live ~nw 0 b then s := Reg.Set.add (Reg.P n) !s)
            regs;
          !s)
        img.i_progs
    in
    Atomic.set img.i_live_in (Some sets);
    sets

let image_programs img = Array.to_list img.i_progs
let image_config img = img.i_config
let image_sentinel img : sentinel_mode = if img.i_armed then `Trap else `Off

let guard_set img ~thread ~pc =
  if not img.i_armed then []
  else
    let q = (img.i_base.(thread) / 4) + pc in
    Array.to_list
      (Array.sub img.i_guard img.i_guard_at.(q)
         (img.i_guard_at.(q + 1) - img.i_guard_at.(q)))

(* An order-sensitive fold of a thread's stores, kept on every machine
   at one multiply-add per store, so two runs can compare what each
   thread stored without either keeping a trace. *)
let digest_store h a v = (((h * 1_000_003) + a) * 1_000_003) + v

let digest_stores trace =
  List.fold_left (fun h (a, v) -> digest_store h a v) 0 trace

let instantiate_with ~record_stores ~engine ~mem_image ~timeline img =
  let config = img.i_config in
  let mem = Memory.create () in
  Memory.load_image mem mem_image;
  let nthd = Array.length img.i_progs in
  let threads =
    Array.mapi
      (fun id prog ->
        {
          id;
          prog;
          pc = 0;
          status = Ready;
          until = 0;
          instrs = 0;
          ctx_events = 0;
          loads = 0;
          stores = 0;
          moves = 0;
          wb_reg = -1;
          wb_value = 0;
          store_trace_rev = [];
          store_digest = 0;
          ready_since = 0;
          wait_cycles = 0;
        })
      img.i_progs
  in
  {
    config;
    engine;
    regs = Array.make config.nreg 0;
    mem;
    threads;
    image = img;
    cycle = 0;
    dispatches = 0;
    busy_cycles = 0;
    switch_cycles = 0;
    record_timeline = timeline;
    timeline_rev = [];
    record_stores;
    holder = -1;
    rr_from = nthd - 1;
    last_yielder = -1;
    stalled_until = 0;
    sentinel =
      (if not img.i_armed then None
       else
         Some
           {
             owner = Array.make config.nreg (-1);
             owner_cycle = Array.make config.nreg 0;
             owner_epoch = Array.make config.nreg 0;
             epoch = Array.make nthd 0;
             disp_value = Array.init nthd (fun _ -> Array.make config.nreg 0);
             disp_epoch = Array.init nthd (fun _ -> Array.make config.nreg (-1));
           });
  }

let instantiate ?(mem_image = []) img =
  instantiate_with ~record_stores:false ~engine:`Soa ~mem_image ~timeline:false
    img

let create ?config ?(engine = `Soa) ?(mem_image = []) ?(timeline = false)
    ?sentinel progs =
  instantiate_with ~record_stores:true ~engine ~mem_image ~timeline
    (image ?config ?sentinel progs)

let memory t = t.mem

(* Callers test [t.record_timeline] first: the scheduler pays one field
   test per dispatch and yield, not a call. *)
let record t thread event =
  t.timeline_rev <- (t.cycle, thread, event) :: t.timeline_rev

let timeline t = List.rev t.timeline_rev

(* All checked register traffic funnels through [read_idx]/[claim_idx]:
   the file-bounds check and the sentinel's ownership bookkeeping happen
   at access time, by register {e index}, so the burst's flagged quads
   and [step_legacy] share exactly the same trap and corruption
   behaviour. *)

let read_idx t th n =
  if n < 0 || n >= t.config.nreg then
    raise (Stuck (Out_of_file { reg = n; nreg = t.config.nreg }));
  (match t.sentinel with
  | Some s when s.owner.(n) >= 0 && s.owner.(n) <> th.id ->
    let clobberer = s.owner.(n) in
    let c =
      {
        corrupt_reg = n;
        reader = th.id;
        reader_name = th.prog.Prog.name;
        clobberer;
        clobberer_name =
          (* [scribble] attributes its writes to a phantom thread one
             past the real ones *)
          (if clobberer < Array.length t.threads then
             t.threads.(clobberer).prog.Prog.name
           else "chaos-storm");
        clobber_cycle = s.owner_cycle.(n);
        read_cycle = t.cycle;
        victim_value =
          (if s.disp_epoch.(th.id).(n) = s.epoch.(th.id) then
             Some s.disp_value.(th.id).(n)
           else None);
        observed_value = t.regs.(n);
      }
    in
    raise (Corruption c)
  | Some _ | None -> ());
  t.regs.(n)

(* Called before every write to register [n]. If its owner [o] is a
   real thread that wrote it before its latest switch, then [o] owned
   [n] at that switch and [t.regs.(n)] still holds the value: record it,
   stamped with [o]'s current epoch. Self-overwrites count, so a later
   storm still reports the value from the switch. *)
let displace t s n =
  let o = s.owner.(n) in
  if o >= 0 && o < Array.length s.epoch && s.owner_epoch.(n) < s.epoch.(o)
  then begin
    s.disp_value.(o).(n) <- t.regs.(n);
    s.disp_epoch.(o).(n) <- s.epoch.(o)
  end

(* The sentinel's bookkeeping for a write of register [n] by thread
   [tid] at [cycle]: [displace], then the new owner's stamps. Unchecked
   accesses, since the burst's claim row runs this on every write:
   callers guarantee [n] lies in the file and [tid] is a real thread. *)
let claim_at t s tid n cycle =
  let o = Array.unsafe_get s.owner n in
  if o >= 0 && o < Array.length s.epoch then begin
    let e = Array.unsafe_get s.epoch o in
    if Array.unsafe_get s.owner_epoch n < e then begin
      Array.unsafe_set (Array.unsafe_get s.disp_value o) n
        (Array.unsafe_get t.regs n);
      Array.unsafe_set (Array.unsafe_get s.disp_epoch o) n e
    end
  end;
  Array.unsafe_set s.owner n tid;
  Array.unsafe_set s.owner_cycle n cycle;
  Array.unsafe_set s.owner_epoch n (Array.unsafe_get s.epoch tid)

(* The write side of a checked access, short of storing the value. *)
let claim_idx t th n =
  if n < 0 || n >= t.config.nreg then
    raise (Stuck (Out_of_file { reg = n; nreg = t.config.nreg }));
  match t.sentinel with
  | Some s -> claim_at t s th.id n t.cycle
  | None -> ()

let write_idx t th n v =
  claim_idx t th n;
  t.regs.(n) <- v

let read_reg t th r = read_idx t th (rnum r)
let write_reg t th r v = write_idx t th (rnum r) v

let operand_value t th = function
  | Instr.Reg r -> read_reg t th r
  | Instr.Imm n -> n

(* Blocked cycles for one architectural access: the address's tier when
   the config carries a hierarchy, else the flat [mem_latency]. *)
let access_latency t a =
  match t.config.tiers with
  | None -> t.config.mem_latency
  | Some h -> Memory.latency h a

(* Executes one instruction of [th]; returns [`Continue] to keep running
   the same thread or [`Yield] when the PU must be rescheduled. This is
   the legacy engine, interpreting [Instr.t] directly; kept as the
   differential oracle for the [`Soa] burst below. *)
let step_legacy t th =
  let ins = Prog.instr th.prog th.pc in
  t.cycle <- t.cycle + 1;
  t.busy_cycles <- t.busy_cycles + 1;
  th.instrs <- th.instrs + 1;
  let next = th.pc + 1 in
  match ins with
  | Instr.Alu { op; dst; src1; src2 } ->
    let v = Instr.eval_alu op (read_reg t th src1) (operand_value t th src2) in
    write_reg t th dst v;
    th.pc <- next;
    `Continue
  | Instr.Mov { dst; src } ->
    th.moves <- th.moves + 1;
    let v = read_reg t th src in
    write_reg t th dst v;
    th.pc <- next;
    `Continue
  | Instr.Movi { dst; imm } ->
    write_reg t th dst imm;
    th.pc <- next;
    `Continue
  | Instr.Load { dst; addr; off } ->
    let a = read_reg t th addr + off in
    let v = Memory.read t.mem a in
    th.loads <- th.loads + 1;
    th.ctx_events <- th.ctx_events + 1;
    th.pc <- next;
    th.wb_reg <- rnum dst;
    th.wb_value <- v;
    th.status <- Blocked;
    th.until <- t.cycle + access_latency t a;
    `Yield
  | Instr.Store { src; addr; off } ->
    let a = read_reg t th addr + off in
    let v = read_reg t th src in
    Memory.write t.mem a v;
    if t.record_stores then th.store_trace_rev <- (a, v) :: th.store_trace_rev;
    th.store_digest <- digest_store th.store_digest a v;
    th.stores <- th.stores + 1;
    th.ctx_events <- th.ctx_events + 1;
    th.pc <- next;
    th.status <- Blocked;
    th.until <- t.cycle + access_latency t a;
    `Yield
  | Instr.Br { target } ->
    th.pc <- Prog.label_index th.prog target;
    `Continue
  | Instr.Brc { cond; src1; src2; target } ->
    if Instr.eval_cond cond (read_reg t th src1) (operand_value t th src2)
    then th.pc <- Prog.label_index th.prog target
    else th.pc <- next;
    `Continue
  | Instr.Ctx_switch ->
    th.ctx_events <- th.ctx_events + 1;
    th.pc <- next;
    `Yield
  | Instr.Nop ->
    th.pc <- next;
    `Continue
  | Instr.Halt ->
    th.status <- Done;
    th.until <- t.cycle;
    `Yield

(* [`Legacy] under the one scheduler: step until the thread yields or
   the clock reaches [limit]. *)
let rec step_until t th limit =
  if t.cycle >= limit then `Continue
  else
    match step_legacy t th with
    | `Continue -> step_until t th limit
    | `Yield -> `Yield

(* ------------------------------------------------------------------ *)
(* The SoA batched burst.

   [`Soa] executes out of the machine-wide flat rows of its {!image}.
   [burst_go] runs the dispatched thread in one tight
   loop — pc, clock and retired count held in locals, the opcode
   dispatched by a direct match on the int tag, operand and
   ALU/condition evaluation inlined — until the thread yields the PU or
   the clock reaches [limit] (the bounded horizon, or the strict cycle
   budget + 1 so the budget-exceeding instruction still executes exactly
   as under [step_legacy]). A whole scheduling slice between traffic
   events therefore costs no per-instruction scheduler dispatch or
   closure call.

   Unflagged quads touch the register row with unchecked accesses: the
   per-access bounds and sentinel tests are the single biggest
   per-instruction cost once dispatch is inlined. A flagged quad (see
   [flagged]) reaches the final arm of the match, which flushes the
   in-flight state, runs [check_quad] and then executes the quad through
   its unchecked arm. A claiming quad of the claim row reaches the arm
   before it, which does the sentinel's write bookkeeping and executes
   the quad the same way, without a flush. So a machine with the
   sentinel armed, or with register operands outside the file, bursts
   too, and pays for the checks only on the quads that need them — with
   the sentinel armed, on the writes alone while the guard holds.

   The loop itself is a pair of tail-recursive functions over plain
   integer state (pc, cycle, mov count), which the compiler keeps in
   machine registers — no ref cells, no closures. Equality of the burst
   rests on one discipline, exercised by the differential suite: every
   exit (yield, limit, fetch fault or check) flushes the in-flight state
   back into [th]/[t] first, so a raised exception observes exactly the
   machine state [step_legacy] would leave — the faulting pc, the cycle
   after the last issued instruction, and the retired count including
   it. *)
(* [t.cycle] is untouched while a burst is in flight — only [burst_flush]
   writes it — so the retired-count delta is [cycle - t.cycle]. *)
let burst_flush t th pc cycle moves =
  let steps = cycle - t.cycle in
  th.pc <- pc;
  t.cycle <- cycle;
  t.busy_cycles <- t.busy_cycles + steps;
  th.instrs <- th.instrs + steps;
  if moves > 0 then th.moves <- th.moves + moves

(* The register accesses of a flagged quad, in [step_legacy]'s order,
   through the checked accessors: the legacy ALU and conditional
   branches read src2 {e before} src1 (OCaml evaluates arguments right
   to left), and with the sentinel armed the first corrupted read names
   the register. Raises where [step_legacy] would; otherwise every
   written register is claimed for the sentinel at the instruction's
   cycle and lies in the file. A load's destination is checked at its
   write-back, as under [step_legacy]. *)
let check_quad t th code w op =
  if op < 16 then begin
    if op < 8 then ignore (read_idx t th code.(w + 3) : int);
    ignore (read_idx t th code.(w + 2) : int);
    claim_idx t th code.(w + 1)
  end
  else if op >= 21 && op < 33 then begin
    if op < 27 then ignore (read_idx t th code.(w + 2) : int);
    ignore (read_idx t th code.(w + 1) : int)
  end
  else
    match op with
    | 16 (* mov *) -> (
      try
        ignore (read_idx t th code.(w + 2) : int);
        claim_idx t th code.(w + 1)
      with e ->
        (* [step_legacy] counts a mov before its accesses *)
        th.moves <- th.moves + 1;
        raise e)
    | 17 (* movi *) -> claim_idx t th code.(w + 1)
    | 18 (* load *) -> ignore (read_idx t th code.(w + 2) : int)
    | 19 (* store *) ->
      ignore (read_idx t th code.(w + 2) : int);
      ignore (read_idx t th code.(w + 1) : int)
    | _ -> ()

(* Top-level and tail-recursive on purpose: every loop-carried value is
   an argument, so each call is a jump with the state in machine
   registers and entering a burst allocates nothing (a local [let rec]
   closing over the rows would cost a closure per dispatch — real money
   on spill-heavy code that yields every few instructions). Neither
   function takes more than ten arguments, the most a tail call passes
   in registers on amd64. *)
let rec burst_go t th code b0 regs limit pc cycle moves =
  if cycle >= limit then begin
    burst_flush t th pc cycle moves;
    `Continue
  end
  else
    (* in range: a validated program's pc stays inside it, and falling
       off its end lands on the fetch-fault quad *)
    burst_op t th code b0 regs limit pc (cycle + 1) moves
      (Array.unsafe_get code (b0 + (pc * 4)))

(* Executes the quad at [pc], opcode [op], issued at [cycle]. Its
   remaining words are in range (a quad is four words), and so are its
   register operands unless it is flagged. *)
and burst_op t th code b0 regs limit pc cycle moves op =
  let w = b0 + (pc * 4) in
  if op < 16 then begin
    (* ALU: 0-7 register src2, 8-15 immediate src2 *)
    let s2 = Array.unsafe_get code (w + 3) in
    let v2 = if op < 8 then Array.unsafe_get regs s2 else s2 in
    let v1 = Array.unsafe_get regs (Array.unsafe_get code (w + 2)) in
    let v =
      match op land 7 with
      | 0 -> v1 + v2
      | 1 -> v1 - v2
      | 2 -> v1 land v2
      | 3 -> v1 lor v2
      | 4 -> v1 lxor v2
      | 5 -> v1 lsl (v2 land 31)
      | 6 -> v1 lsr (v2 land 31)
      | _ -> v1 * v2
    in
    Array.unsafe_set regs (Array.unsafe_get code (w + 1)) v;
    burst_go t th code b0 regs limit (pc + 1) cycle moves
  end
  else if op >= 21 && op < 33 then begin
    (* Brc: 21-26 register src2, 27-32 immediate src2 *)
    let s2 = Array.unsafe_get code (w + 2) in
    let v2 = if op < 27 then Array.unsafe_get regs s2 else s2 in
    let v1 = Array.unsafe_get regs (Array.unsafe_get code (w + 1)) in
    let taken =
      match if op < 27 then op - 21 else op - 27 with
      | 0 -> v1 = v2
      | 1 -> v1 <> v2
      | 2 -> v1 < v2
      | 3 -> v1 >= v2
      | 4 -> v1 > v2
      | _ -> v1 <= v2
    in
    burst_go t th code b0 regs limit
      (if taken then Array.unsafe_get code (w + 3) else pc + 1)
      cycle moves
  end
  else
    match op with
    | 16 (* mov *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (w + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (w + 2)));
      burst_go t th code b0 regs limit (pc + 1) cycle (moves + 1)
    | 17 (* movi *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (w + 1))
        (Array.unsafe_get code (w + 2));
      burst_go t th code b0 regs limit (pc + 1) cycle moves
    | 18 (* load *) ->
      let a =
        Array.unsafe_get regs (Array.unsafe_get code (w + 2))
        + Array.unsafe_get code (w + 3)
      in
      let v = Memory.read t.mem a in
      th.loads <- th.loads + 1;
      th.ctx_events <- th.ctx_events + 1;
      th.wb_reg <- Array.unsafe_get code (w + 1);
      th.wb_value <- v;
      th.status <- Blocked;
      th.until <- cycle + access_latency t a;
      burst_flush t th (pc + 1) cycle moves;
      `Yield
    | 19 (* store *) ->
      let a =
        Array.unsafe_get regs (Array.unsafe_get code (w + 2))
        + Array.unsafe_get code (w + 3)
      in
      let v = Array.unsafe_get regs (Array.unsafe_get code (w + 1)) in
      Memory.write t.mem a v;
      if t.record_stores then
        th.store_trace_rev <- (a, v) :: th.store_trace_rev;
      th.store_digest <- digest_store th.store_digest a v;
      th.stores <- th.stores + 1;
      th.ctx_events <- th.ctx_events + 1;
      th.status <- Blocked;
      th.until <- cycle + access_latency t a;
      burst_flush t th (pc + 1) cycle moves;
      `Yield
    | 20 (* br *) ->
      burst_go t th code b0 regs limit (Array.unsafe_get code (w + 1)) cycle
        moves
    | 33 (* ctx_switch *) ->
      th.ctx_events <- th.ctx_events + 1;
      burst_flush t th (pc + 1) cycle moves;
      `Yield
    | 34 (* nop *) -> burst_go t th code b0 regs limit (pc + 1) cycle moves
    | 35 (* halt *) ->
      th.status <- Done;
      th.until <- cycle;
      burst_flush t th pc cycle moves;
      `Yield
    | 36 (* fetch fault: fail like [step_legacy]'s fetch past the end,
            before the cycle is issued *) ->
      burst_flush t th pc (cycle - 1) moves;
      raise (Invalid_argument "index out of bounds")
    | _ when op >= claiming ->
      (* the claim row's in-file write: the sentinel's bookkeeping at the
         write's cycle, then the quad itself, its reads unchecked *)
      (match t.sentinel with
      | Some s -> claim_at t s th.id (Array.unsafe_get code (w + 1)) cycle
      | None -> ());
      burst_op t th code b0 regs limit pc cycle moves (op - claiming)
    | _ (* flagged *) ->
      burst_flush t th pc cycle moves;
      let op = op - flagged in
      check_quad t th code w op;
      burst_op t th code b0 regs limit pc cycle 0 op

(* After a yield: the sentinel's epoch bump, and the timeline's record
   of why the thread gave up the PU. *)
let note_yield t th =
  (match t.sentinel with
  | Some s -> s.epoch.(th.id) <- s.epoch.(th.id) + 1
  | None -> ());
  if t.record_timeline then
    record t th.id
      (match th.status with
      | Blocked -> Blocked_on_memory
      | Done -> Halted
      | Ready -> Yielded)

(* No register of the guard entries [k] to [stop - 1] has an owner
   other than [tid]. *)
let rec guard_clear owner guard tid k stop =
  k >= stop
  ||
  let o = owner.(guard.(k)) in
  (o < 0 || o = tid) && guard_clear owner guard tid (k + 1) stop

(* Runs the holder until it yields or the clock reaches [limit]. An
   armed burst takes the claim row when the guard set of the quad it
   enters at is clear, and the checked row otherwise; the test is made
   at every entry, resumes after a horizon pause included, since a storm
   or another thread may have written a register since the last one. *)
let run_holder t th ~limit =
  match t.engine with
  | `Soa ->
    let img = t.image in
    let b0 = img.i_base.(th.id) in
    let code =
      match t.sentinel with
      | None -> img.i_checked
      | Some s ->
        let q = (b0 / 4) + th.pc in
        if
          guard_clear s.owner img.i_guard th.id img.i_guard_at.(q)
            img.i_guard_at.(q + 1)
        then img.i_claim
        else img.i_checked
    in
    burst_go t th code b0 t.regs limit th.pc t.cycle 0
  | `Legacy -> step_until t th limit

(* [exec]'s result: the index of a thread that just halted, or one of
   these codes. *)
let exec_done = -1
let exec_idle = -2
let exec_horizon = -3
let exec_running = -4

(* The scheduler, shared by the one-shot [run] (strict: the cycle budget
   and deadlock detection are enforced with exceptions) and the
   re-entrant [run_until] (bounded: progress stops at [horizon] and the
   machine can always be resumed). Returns [exec_done] only in strict
   mode, when no thread can ever run again.

   Round-robin dispatch picks the next ready thread after the last
   holder; if none is ready but some are blocked, time advances to the
   earliest wake-up — but never past [horizon] in bounded mode. In
   strict mode an earliest wake-up beyond the cycle budget means every
   thread is permanently parked within that budget: that is a deadlock,
   reported with per-thread status, as opposed to plain [Cycle_limit]
   exhaustion where a runnable thread consumed the budget.

   A dispatch allocates nothing: scheduler state lives in int fields of
   [t] with [-1] for "none", statuses are constant constructors, the
   pending write-back is two int fields, the result is an int code, and
   the pick and wake scans are inlined loops. This matters because
   short-burst workloads — spill-heavy allocator output yields every
   few instructions — spend as much time in the scheduler as in the
   burst itself. Since the state is in [t] all along, pausing, resuming
   and trap reports see one consistent machine. The timeline events
   and the sentinel's epoch bump are taken here, at dispatch and after
   each yield, for both engines, each behind a field test so a machine
   that needs neither makes no call. *)
let exec t ~horizon ~strict ~stop_on_halt =
  let threads = t.threads in
  let n = Array.length threads in
  (* run the holder up to the horizon (bounded) or the cycle budget + 1
     (strict — the budget-exceeding instruction must execute so the loop
     re-check raises [Cycle_limit]) *)
  let limit =
    if strict then
      if t.config.max_cycles = max_int then max_int else t.config.max_cycles + 1
    else horizon
  in
  let ret = ref exec_running in
  while !ret = exec_running do
    if t.holder < 0 then begin
      (* pick: wake, round-robin scan, or advance time to the earliest
         blocked wake-up and retry *)
      let picked = ref (-2) in
      while !picked = -2 do
        for i = 0 to n - 1 do
          let th = threads.(i) in
          if th.status = Blocked && th.until <= t.cycle then begin
            th.status <- Ready;
            th.ready_since <- max th.until t.cycle
          end
        done;
        (* wrap by conditional subtract, not [mod]: an integer division
           per probe is the scan's dominant cost *)
        let cand = ref (-1) in
        let i = ref (t.rr_from + 1) in
        if !i >= n then i := !i - n;
        for _ = 1 to n do
          if !cand < 0 && threads.(!i).status = Ready then cand := !i;
          incr i;
          if !i >= n then i := 0
        done;
        if !cand >= 0 then picked := !cand
        else begin
          let earliest = ref max_int and blocked = ref false in
          for i = 0 to n - 1 do
            let th = threads.(i) in
            if th.status = Blocked then begin
              blocked := true;
              if th.until < !earliest then earliest := th.until
            end
          done;
          if not !blocked then picked := -1
          else if strict && !earliest > t.config.max_cycles then
            raise
              (Stuck
                 (Deadlock { limit = t.config.max_cycles; threads = statuses t }))
          else if (not strict) && !earliest > horizon then picked := -1
          else t.cycle <- max t.cycle !earliest
        end
      done;
      if !picked < 0 then
        if strict then ret := exec_done
        else begin
          (* nothing can run before the horizon: the PU idles up to it *)
          if t.cycle < horizon then t.cycle <- horizon;
          ret := exec_idle
        end
      else begin
        let next = !picked in
        (if t.last_yielder >= 0 then
           let yth = threads.(t.last_yielder) in
           begin
             if next <> t.last_yielder || yth.status <> Ready then begin
               t.cycle <- t.cycle + t.config.ctx_switch_cost;
               t.switch_cycles <- t.switch_cycles + t.config.ctx_switch_cost
             end;
             (* a voluntary yield leaves the thread runnable from now *)
             if yth.status = Ready then yth.ready_since <- t.cycle
           end);
        t.last_yielder <- -1;
        t.holder <- next;
        (* dispatch: the load write-back of the transfer-register rule *)
        let th = threads.(next) in
        if th.wb_reg >= 0 then begin
          write_idx t th th.wb_reg th.wb_value;
          th.wb_reg <- -1
        end;
        th.wait_cycles <- th.wait_cycles + max 0 (t.cycle - th.ready_since);
        if t.record_timeline then record t next Dispatched;
        t.dispatches <- t.dispatches + 1
      end
    end
    else if strict && t.cycle > t.config.max_cycles then
      raise
        (Stuck (Cycle_limit { limit = t.config.max_cycles; threads = statuses t }))
    else if (not strict) && t.cycle >= horizon then ret := exec_horizon
    else begin
      let cur = t.holder in
      let th = threads.(cur) in
      match run_holder t th ~limit with
      | `Continue -> ()
      | `Yield ->
        if t.sentinel <> None || t.record_timeline then note_yield t th;
        t.holder <- -1;
        t.rr_from <- cur;
        t.last_yielder <- cur;
        if stop_on_halt && th.status = Done then ret := cur
    end
  done;
  !ret

let run ?(config = default_config) ?(engine = `Soa) ?(mem_image = [])
    ?(timeline = false) ?(sentinel = `Off) progs =
  let t = create ~config ~engine ~mem_image ~timeline ~sentinel progs in
  if exec t ~horizon:max_int ~strict:true ~stop_on_halt:false <> exec_done then
    assert false;
  t

(* ------------------------------------------------------------------ *)
(* Bounded stepping: the interface the traffic dispatcher drives.      *)

type pause = [ `Horizon | `Idle | `Halted of int ]

let run_until ?(stop_on_halt = false) t ~horizon : pause =
  (* A stalled machine burns clock without retiring anything: the hang
     the chaos harness injects and the dispatcher watchdog detects. If
     the stall expires inside the horizon the machine resumes; blocked
     threads wake late, exactly as if the whole engine froze. *)
  if t.cycle < t.stalled_until then
    t.cycle <- max t.cycle (min horizon t.stalled_until);
  if t.cycle < t.stalled_until && t.cycle >= horizon then `Idle
  else
    let r = exec t ~horizon ~strict:false ~stop_on_halt in
    if r >= 0 then `Halted r
    else if r = exec_idle then `Idle
    else if r = exec_horizon then `Horizon
    else assert false  (* [exec_done] is strict-mode only *)

let stall t ~until = t.stalled_until <- until
let stalled t = t.cycle < t.stalled_until

let instructions_retired t =
  Array.fold_left (fun a th -> a + th.instrs) 0 t.threads

let thread_statuses = statuses

(* Chaos storm: deterministically clobber up to [count] currently-owned
   registers with garbage, attributing the writes to a phantom thread
   id one past the real ones. Every subsequent read of a clobbered
   register by any real thread therefore trips the sentinel (the
   phantom id never equals a reader), so a storm is always caught at
   the first dependent read instead of silently corrupting values. A
   no-op (returning 0) without the sentinel. *)
let scribble t ~seed ~count =
  match t.sentinel with
  | None -> 0
  | Some s ->
    let state = ref (if seed = 0 then 0x9E3779B9 else seed land 0x3FFFFFFF) in
    let rand () =
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 17) in
      let x = x lxor (x lsl 5) in
      let x = x land 0x3FFFFFFF in
      state := (if x = 0 then 1 else x);
      x
    in
    let phantom = Array.length t.threads in
    let hits = ref 0 in
    for _ = 1 to count do
      let n = rand () mod t.config.nreg in
      if s.owner.(n) >= 0 && s.owner.(n) < phantom then begin
        displace t s n;
        s.owner.(n) <- phantom;
        s.owner_cycle.(n) <- t.cycle;
        t.regs.(n) <- rand ();
        incr hits
      end
    done;
    !hits

let cycle t = t.cycle
let num_threads t = Array.length t.threads
let thread_state t i = state_view t.threads.(i)
let thread_completed t i = t.threads.(i).status = Done

let park_thread t i =
  let th = t.threads.(i) in
  if t.holder = i then
    invalid_arg "Machine.park_thread: thread is holding the PU";
  match th.status with
  | Ready ->
    th.status <- Done;
    th.until <- t.cycle
  | Blocked | Done ->
    invalid_arg "Machine.park_thread: thread is not runnable"

let restart_thread t i =
  let th = t.threads.(i) in
  match th.status with
  | Done ->
    th.pc <- 0;
    th.status <- Ready;
    th.ready_since <- t.cycle
  | Ready | Blocked ->
    invalid_arg "Machine.restart_thread: thread has not completed"

(* ------------------------------------------------------------------ *)
(* Hot-swap: replace every thread's program in place, at a packet
   boundary, with the swap proven safe before any state is touched.

   Safety argument. A swap is only legal when (a) every thread is
   parked ([Done]) with no pending load writeback, so no old-program
   continuation exists that could read a register afterwards, and
   (b) every incoming program has an empty live-in set at its entry
   point — computed once per image by [rbw_rows], which the test suite
   proves equal to the allocator's own liveness — so no new-program
   path reads a register before writing it. Together
   these prove every register dead across the swap: whatever values the
   old allocation left behind are unobservable. The sentinel's
   ownership state describes exactly those dead values, so it is
   cleared rather than carried over — an armed sentinel can never fire
   because of a swap, only because of a genuinely unsafe allocation. *)

type swap_error =
  | Swap_arity of { expected : int; got : int }
  | Swap_not_parked of { thread : int; state : thread_state_view }
  | Swap_pending_writeback of { thread : int }
  | Swap_not_physical of { thread : string; reg : Reg.t }
  | Swap_live_in of { thread : string; regs : Reg.t list }

let pp_swap_error ppf = function
  | Swap_arity { expected; got } ->
    Fmt.pf ppf "swap expects %d program(s), got %d" expected got
  | Swap_not_parked { thread; state } ->
    Fmt.pf ppf "thread %d is %a, not parked at a packet boundary" thread
      pp_thread_state state
  | Swap_pending_writeback { thread } ->
    Fmt.pf ppf "thread %d has a load writeback in flight" thread
  | Swap_not_physical { thread; reg } ->
    Fmt.pf ppf "thread %s still uses virtual register %a" thread Reg.pp reg
  | Swap_live_in { thread; regs } ->
    Fmt.pf ppf "thread %s reads %a before writing: not dead across the swap"
      thread
      Fmt.(list ~sep:comma Reg.pp)
      regs

(* Arity and parking: the checks that need only the machine. *)
let swap_ready t got =
  let expected = Array.length t.threads in
  if got <> expected then Error (Swap_arity { expected; got })
  else
    let rec check_parked i =
      if i >= expected then Ok ()
      else
        let th = t.threads.(i) in
        match th.status with
        | Done when th.wb_reg >= 0 ->
          Error (Swap_pending_writeback { thread = i })
        | Done -> check_parked (i + 1)
        | Ready | Blocked ->
          Error (Swap_not_parked { thread = i; state = state_view th })
    in
    check_parked 0

let live_in_error prog live =
  Swap_live_in { thread = prog.Prog.name; regs = Reg.Set.elements live }

let swap_image t img =
  if img.i_config.nreg <> t.config.nreg || img.i_armed <> (t.sentinel <> None)
  then
    invalid_arg
      "Machine.swap_image: image built for another register file or sentinel \
       mode";
  match swap_ready t (Array.length img.i_progs) with
  | Error e -> Error e
  | Ok () -> (
    let live_in = live_in_sets img in
    let rec check_live i =
      if i >= Array.length img.i_progs then Ok ()
      else if Reg.Set.is_empty live_in.(i) then check_live (i + 1)
      else Error (live_in_error img.i_progs.(i) live_in.(i))
    in
    match check_live 0 with
    | Error e -> Error e
    | Ok () ->
      Array.iteri
        (fun i prog ->
          let th = t.threads.(i) in
          t.threads.(i) <-
            {
              th with
              prog;
              pc = 0;
              wb_reg = -1;
              (* counters, traces and completion stamps accumulate across
                 the swap so IPC and store-order checks stay continuous *)
            })
        img.i_progs;
      (* the new rows may differ in length, flags and guard sets *)
      t.image <- img;
      (match t.sentinel with
      | None -> ()
      | Some s ->
        Array.fill s.owner 0 (Array.length s.owner) (-1);
        Array.fill s.owner_cycle 0 (Array.length s.owner_cycle) 0;
        Array.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) s.disp_epoch);
      t.last_yielder <- -1;
      Ok ())

let swap_programs t progs =
  match swap_ready t (List.length progs) with
  | Error e -> Error e
  | Ok () ->
    if List.for_all Prog.all_physical progs then
      swap_image t
        (image ~config:t.config
           ~sentinel:(if t.sentinel = None then `Off else `Trap)
           progs)
    else
      (* a program with virtual registers: the first failing program,
         in order, names the error *)
      let rec first_error = function
        | [] -> assert false
        | p :: rest ->
          if not (Prog.all_physical p) then
            Error
              (Swap_not_physical
                 { thread = p.Prog.name; reg = Reg.Set.min_elt (Prog.vregs p) })
          else
            let live = (live_in_sets (image ~config:t.config [ p ])).(0) in
            if Reg.Set.is_empty live then first_error rest
            else Error (live_in_error p live)
      in
      first_error progs

type thread_report = {
  name : string;
  completion : int option;  (* None if the thread never halted *)
  instructions : int;
  context_switches : int;
  load_count : int;
  store_count : int;
  move_count : int;
  wait_cycles : int;  (* runnable but queued behind other threads *)
  store_trace : (int * int) list;
  store_digest : int;
}

type report = {
  total_cycles : int;
  busy_cycles : int;  (* some thread executing *)
  switch_cycles : int;  (* context-switch overhead *)
  idle_cycles : int;  (* everyone blocked on memory *)
  utilization : float;
  thread_reports : thread_report list;
}

let report t =
  {
    total_cycles = t.cycle;
    busy_cycles = t.busy_cycles;
    switch_cycles = t.switch_cycles;
    idle_cycles = max 0 (t.cycle - t.busy_cycles - t.switch_cycles);
    utilization =
      (if t.cycle = 0 then 0.
       else float_of_int t.busy_cycles /. float_of_int t.cycle);
    thread_reports =
      Array.to_list t.threads
      |> List.map (fun th ->
             {
               name = th.prog.Prog.name;
               completion =
                 (match th.status with
                 | Done -> Some th.until
                 | Ready | Blocked -> None);
               instructions = th.instrs;
               context_switches = th.ctx_events;
               load_count = th.loads;
               store_count = th.stores;
               move_count = th.moves;
               wait_cycles = th.wait_cycles;
               store_trace = List.rev th.store_trace_rev;
               store_digest = th.store_digest;
             });
  }

(* Renders the timeline as run intervals: one line per dispatch, with
   the cycles the thread held the PU and why it gave it up. *)
let pp_timeline ppf t =
  let name i = t.threads.(i).prog.Prog.name in
  let rec go = function
    | (c0, th, Dispatched) :: rest ->
      let rec until = function
        | (c1, th', ev) :: more when th' = th && ev <> Dispatched ->
          Some (c1, ev, more)
        | (_, _, Dispatched) :: _ as more -> (
          (* pre-empted view: next dispatch belongs to another thread *)
          match more with
          | (c1, _, _) :: _ -> Some (c1, Yielded, more)
          | [] -> None)
        | _ :: more -> until more
        | [] -> None
      in
      (match until rest with
      | Some (c1, ev, more) ->
        let why =
          match ev with
          | Blocked_on_memory -> "memory"
          | Yielded -> "yield"
          | Halted -> "halt"
          | Dispatched -> "switch"
        in
        Fmt.pf ppf "%8d..%-8d %-16s %s@." c0 c1 (name th) why;
        go more
      | None -> Fmt.pf ppf "%8d..        %-16s (running)@." c0 (name th))
    | _ :: rest -> go rest
    | [] -> ()
  in
  go (timeline t)

let pp_report ppf r =
  Fmt.pf ppf "total cycles: %d (busy %d, switch %d, idle %d; %.0f%% utilised)@."
    r.total_cycles r.busy_cycles r.switch_cycles r.idle_cycles
    (100. *. r.utilization);
  List.iter
    (fun tr ->
      Fmt.pf ppf
        "  %-16s completion=%a instrs=%d ctx=%d loads=%d stores=%d moves=%d wait=%d@."
        tr.name
        Fmt.(option ~none:(any "-") int)
        tr.completion tr.instructions tr.context_switches tr.load_count
        tr.store_count tr.move_count tr.wait_cycles)
    r.thread_reports
