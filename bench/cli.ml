(* The bench registry: the one argument spec every subcommand shares,
   and the one runner every report-writing subcommand goes through.

   Every subcommand either prints text or writes a BENCH_*.json report.
   A report subcommand only builds its payload as a {!Json.t} and names
   the {!Checks} that gate it; the runner times the run, appends the
   wall_clock member, writes the canonical text and applies the checks,
   and `--check FILE` applies the same checks to a committed report.
   Flags that cannot take effect on the selection (--json or --check
   without exactly one report subcommand, an unwritable --json path)
   are usage errors, raised before any experiment runs. *)

open Npra_core

type opts = {
  quick : bool;  (* a short dataflow timing quota and short runs, for CI *)
  seed : int option;  (* replayable seed for the randomised harnesses *)
  jobs : int;  (* worker domains for faults, fuzz, throughput, portfolio, chip *)
  json_override : string option;  (* --json PATH *)
  check : string option;  (* --check FILE *)
}

let default_opts =
  { quick = false; seed = None; jobs = 1; json_override = None; check = None }

type report = {
  name : string;
  json_default : string;
  run : opts -> Json.t;  (* the payload, without wall_clock *)
  check : Json.t -> string list;  (* one message per failed assertion *)
}

type spec = Text of string * (unit -> unit) | Report of report

let name = function Text (n, _) -> n | Report r -> r.name

let usage ppf specs =
  Fmt.pf ppf "subcommands:@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "  %-12s%s@." (name s)
        (match s with Report r -> "writes " ^ r.json_default | Text _ -> ""))
    specs;
  Fmt.pf ppf
    "flags: [--quick] [--seed N] [--jobs N] [--json PATH | --check FILE \
     (single report subcommand only)]@.\
     --jobs N runs faults, fuzz, throughput, portfolio and chip's shards on \
     N domains; the other subcommands ignore it@."

let die specs fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@.%a" msg usage specs;
      exit 2)
    fmt

(* Opening for append creates nothing that was not there before: a file
   made only by this probe is removed again. *)
let writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
  | oc ->
    close_out oc;
    if not existed then Sys.remove path;
    Ok ()
  | exception Sys_error msg -> Error msg

let json_path opts r = Option.value opts.json_override ~default:r.json_default

(* [parse ~specs argv] returns the shared options and the selected
   subcommands in command-line order (all of them when none is named).
   Unknown names, unusable --json/--check flags and unwritable report
   paths fail fast, before any experiment runs. *)
let parse ~specs argv =
  let rec go opts names = function
    | [] -> (opts, List.rev names)
    | "--json" :: path :: rest ->
      go { opts with json_override = Some path } names rest
    | [ "--json" ] -> die specs "--json needs a path argument"
    | "--check" :: path :: rest -> go { opts with check = Some path } names rest
    | [ "--check" ] -> die specs "--check needs a file argument"
    | "--quick" :: rest -> go { opts with quick = true } names rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some s -> go { opts with seed = Some s } names rest
      | None -> die specs "--seed needs an integer argument, got %S" n)
    | [ "--seed" ] -> die specs "--seed needs an integer argument"
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> go { opts with jobs = j } names rest
      | _ -> die specs "--jobs needs a positive integer argument, got %S" n)
    | [ "--jobs" ] -> die specs "--jobs needs a positive integer argument"
    | name :: rest -> go opts (name :: names) rest
  in
  let opts, names = go default_opts [] argv in
  let selected =
    match names with
    | [] -> specs
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun s -> name s = n) specs with
          | Some s -> s
          | None -> die specs "unknown subcommand %S" n)
        names
  in
  let reports =
    List.filter_map (function Report r -> Some r | Text _ -> None) selected
  in
  let single flag path =
    match reports with
    | [ _ ] -> ()
    | [] ->
      die specs "%s %s: %s no JSON report; the flag would be ignored" flag path
        (match selected with
        | [ s ] -> Fmt.str "subcommand %S writes" (name s)
        | _ -> "the selected subcommands write")
    | many ->
      die specs
        "%s %s is ambiguous: subcommands %s all write JSON; select exactly \
         one"
        flag path
        (String.concat ", " (List.map (fun r -> r.name) many))
  in
  (match (opts.json_override, opts.check) with
  | Some _, Some _ -> die specs "--json and --check exclude each other"
  | Some path, None -> single "--json" path
  | None, Some path -> single "--check" path
  | None, None -> ());
  if opts.check = None then
    List.iter
      (fun r ->
        let path = json_path opts r in
        match writable path with
        | Ok () -> ()
        | Error msg -> die specs "cannot write %s: %s" path msg)
      reports;
  (opts, selected)

let fail_with r failures =
  List.iter
    (fun m -> Fmt.epr "%s FAILURE: %s@." (String.uppercase_ascii r.name) m)
    failures;
  exit 1

(* Run one report subcommand: time it, append wall_clock — the only
   member that may differ between runs of the same seed at different
   job counts — write the canonical text, then gate on its checks. *)
let run_report opts r =
  let t0 = Unix.gettimeofday () in
  let payload = r.run opts in
  let seconds = Unix.gettimeofday () -. t0 in
  Fmt.pr "wall clock: %.3fs at %d jobs@." seconds opts.jobs;
  let wall_clock =
    ( "wall_clock",
      Json.Obj [ ("jobs", Int opts.jobs); ("seconds", Float (3, seconds)) ] )
  in
  let report =
    match payload with
    | Json.Obj members -> Json.Obj (members @ [ wall_clock ])
    | v -> v
  in
  let path = json_path opts r in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string report));
  Fmt.pr "wrote %s@." path;
  match Checks.apply r.check report with [] -> () | failures -> fail_with r failures

(* Apply a report subcommand's checks to a report already on disk. *)
let check_file specs r path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> die specs "cannot read %s: %s" path msg
  | text -> (
    match Json.parse text with
    | Error msg -> fail_with r [ Fmt.str "%s is not JSON: %s" path msg ]
    | Ok report -> (
      match Checks.apply r.check report with
      | [] -> Fmt.pr "ok: %s passes the %s checks@." path r.name
      | failures -> fail_with r failures))

let main specs argv =
  let opts, selected = parse ~specs argv in
  List.iter
    (function
      | Text (_, run) -> if opts.check = None then run ()
      | Report r -> (
        match opts.check with
        | Some path -> check_file specs r path
        | None -> run_report opts r))
    selected
