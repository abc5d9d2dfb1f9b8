(* Dead-export guard: every value a library interface exports must be
   named somewhere outside its own module.

   Reads every [val] in lib/**/*.mli and fails, naming the value, when no
   .ml or .mli under lib, bin, bench, perfbench, examples or test other
   than the module's own pair mentions it. The scan matches identifier
   tokens only (comments and strings count), so a value named in another
   module's comment passes, and two modules that export the same name
   keep each other alive. There is no allowlist: an export that only its
   own module uses is unexported, and one that nothing uses is deleted.

   Usage: dead_exports.exe ROOT *)

let scanned_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]
let self = Filename.concat "test" (Filename.concat "exports" "dead_exports.ml")

let read path = In_channel.with_open_bin path In_channel.input_all

(* Every .ml and .mli under [dir], as paths relative to [root]; build
   and hidden directories are skipped. *)
let rec sources root dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let rel = Filename.concat dir entry in
         if entry.[0] = '_' || entry.[0] = '.' then []
         else if Sys.is_directory (Filename.concat root rel) then sources root rel
         else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ rel ]
         else [])

let is_ident_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* The identifier tokens of [text], in order. *)
let idents text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_start text.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    end
    else if is_ident_char text.[i] then begin
      (* skip the tail of a number such as 0x1f *)
      let j = ref i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      go !j acc
    end
    else go (i + 1) acc
  in
  go 0 []

(* The names of the [val] declarations of an interface; operators such
   as [val ( + )] are not identifiers and are skipped. *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"val " line then
           let decl = String.trim (String.sub line 4 (String.length line - 4)) in
           if decl <> "" && is_ident_start decl.[0] then Some (List.hd (idents decl))
           else None
         else None)

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files =
    List.concat_map (sources root) scanned_dirs |> List.filter (fun f -> f <> self)
  in
  let tokens =
    List.map
      (fun f ->
        let tbl = Hashtbl.create 256 in
        List.iter (fun id -> Hashtbl.replace tbl id ()) (idents (read (Filename.concat root f)));
        (f, tbl))
      files
  in
  let interfaces =
    List.filter
      (fun f -> String.starts_with ~prefix:"lib" f && Filename.check_suffix f ".mli")
      files
  in
  let exports =
    List.concat_map
      (fun mli -> List.map (fun name -> (mli, name)) (vals (read (Filename.concat root mli))))
      interfaces
  in
  let dead =
    List.filter
      (fun (mli, name) ->
        let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
        not (List.exists (fun (f, tbl) -> (not (List.mem f own)) && Hashtbl.mem tbl name) tokens))
      exports
  in
  match dead with
  | [] ->
    Printf.printf "dead exports: none among %d values in %d interfaces\n"
      (List.length exports) (List.length interfaces)
  | _ ->
    List.iter
      (fun (mli, name) ->
        Printf.printf "%s: val %s is named by no file outside its module\n" mli name)
      dead;
    Printf.printf "%d dead exports\n" (List.length dead);
    exit 1
