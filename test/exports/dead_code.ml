(* Dead-code guard over the typed trees (.cmt/.cmti) dune writes.

   Usage: dead_code.exe ROOT LIBDIR DIR...

   ROOT is the build directory (_build/default). Every item declared in a
   source under LIBDIR is checked against the uses found in the typed
   trees of every source under the DIRs. Items are keyed by compilation
   unit (from their uid), type name and own name, never by spelling, so
   two modules that export the same name do not keep each other alive
   and a name in a comment is no use at all.

   1. Values. A [val] of an interface under LIBDIR must be referenced
      from another compilation unit; a top-level value of a module with
      no interface must be referenced somewhere. A module used whole (a
      functor argument, [include], [(module M)]) uses all its values; a
      module alias is seen through, and [open] uses nothing.
   2. Constructors. Every constructor of a variant declared under LIBDIR
      must be built by some expression; matching on it does not count.
   3. Fields. Every record field declared under LIBDIR must be read, by
      [r.f] or by a non-wildcard field of a record pattern; writes and
      construction do not count.
   4. Optional arguments. Every optional argument of a value checked by
      rule 1 must be passed explicitly ([~x:v], [?x:v] or [?x]) at some
      call site. An omitted one is a ghost-located [None] and does not
      count.

   Each finding is printed as [file:line: kind name] and the guard exits
   1; there is no allowlist. *)

open Typedtree
module Uid = Shape.Uid

(* ---- reading the typed trees ---- *)

let rec typed_trees dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then typed_trees path
           else if Filename.check_suffix entry ".cmt" || Filename.check_suffix entry ".cmti"
           then [ path ]
           else [])

let under dir file = String.starts_with ~prefix:(dir ^ "/") file

(* The module name a reader knows: [Npra_ir__Bitset] is [Bitset]. *)
let short unit =
  let rec from i =
    if i < 0 then unit
    else if unit.[i] = '_' && unit.[i + 1] = '_' then
      String.sub unit (i + 2) (String.length unit - i - 2)
    else from (i - 1)
  in
  from (String.length unit - 2)

let unit_of_uid = function
  | Uid.Item { comp_unit; _ } | Uid.Compilation_unit comp_unit -> Some comp_unit
  | Uid.Internal | Uid.Predef _ -> None

(* The type name of a constructor's or label's result type. *)
let type_name ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Some (Path.last p) | _ -> None

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

(* ---- what is declared ---- *)

type value = {
  v_file : string;
  v_line : int;
  v_name : string;  (** Module.value *)
  v_unit : string;
  v_intf : bool;  (** declared in an interface *)
  v_opts : string list;
}

type member = { m_file : string; m_line : int; m_name : string }

let values : (Uid.t, value) Hashtbl.t = Hashtbl.create 1024

(* Constructors and fields by (unit, type, name). *)
let ctors : (string * string * string, member) Hashtbl.t = Hashtbl.create 256
let fields : (string * string * string, member) Hashtbl.t = Hashtbl.create 512

(* Implementation uid -> interface uid, for values an interface exports. *)
let impl_to_intf : (Uid.t, Uid.t) Hashtbl.t = Hashtbl.create 1024

(* The values a module used whole stands for, by canonical module path. *)
let module_values : (string, Uid.t list) Hashtbl.t = Hashtbl.create 256

let add_module path uid =
  let prev = Option.value ~default:[] (Hashtbl.find_opt module_values path) in
  Hashtbl.replace module_values path (uid :: prev)

let line (loc : Location.t) = loc.loc_start.pos_lnum

let declare_value ~file ~unit ~intf ~path uid name (loc : Location.t) ty =
  add_module path uid;
  Hashtbl.replace values uid
    {
      v_file = file;
      v_line = line loc;
      v_name = short unit ^ "." ^ name;
      v_unit = unit;
      v_intf = intf;
      v_opts = optional_labels ty;
    }

let declare_types ~file ~unit (decl : type_declaration) =
  let tname = decl.typ_name.txt in
  let add tbl name loc =
    let key = (unit, tname, name) in
    if not (Hashtbl.mem tbl key) then
      Hashtbl.replace tbl key
        { m_file = file; m_line = line loc; m_name = short unit ^ "." ^ tname ^ "." ^ name }
  in
  match decl.typ_kind with
  | Ttype_variant cds -> List.iter (fun cd -> add ctors cd.cd_name.txt cd.cd_loc) cds
  | Ttype_record lds -> List.iter (fun ld -> add fields ld.ld_name.txt ld.ld_loc) lds
  | Ttype_abstract | Ttype_open -> ()

let type_iterator ~file ~unit =
  {
    Tast_iterator.default_iterator with
    type_declaration =
      (fun it decl ->
        declare_types ~file ~unit decl;
        Tast_iterator.default_iterator.type_declaration it decl);
  }

(* The [val]s of an interface, nested signatures included. *)
let rec declare_signature ~file ~unit ~path (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        declare_value ~file ~unit ~intf:true ~path vd.val_val.val_uid
          (String.concat "." (List.tl (String.split_on_char '.' path) @ [ vd.val_name.txt ]))
          vd.val_loc vd.val_val.val_type
      | Tsig_module { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
        declare_signature ~file ~unit ~path:(path ^ "." ^ name) sg
      | _ -> ())
    sg.sig_items

(* The top-level values of an implementation with no interface. *)
let declare_structure ~file ~unit (str : structure) =
  List.iter
    (function
      | Types.Sig_value (id, vd, _) ->
        declare_value ~file ~unit ~intf:false ~path:unit vd.val_uid (Ident.name id) vd.val_loc
          vd.val_type
      | _ -> ())
    str.str_type

(* ---- what is used ---- *)

(* Uses of a value by uid: the units it is referenced from. *)
let value_uses : (Uid.t, string list) Hashtbl.t = Hashtbl.create 4096
let passed : (Uid.t * string, unit) Hashtbl.t = Hashtbl.create 256
let built : (string * string * string, unit) Hashtbl.t = Hashtbl.create 1024
let read : (string * string * string, unit) Hashtbl.t = Hashtbl.create 1024

(* Module aliases by canonical path, and (path, unit) for each module
   used whole. *)
let aliases : (string, string) Hashtbl.t = Hashtbl.create 256
let whole : (string * string) list ref = ref []

(* Units with an interface. Their implementation numbers its uids apart
   from the interface, and other units see only the interface's. *)
let with_intf : (string, unit) Hashtbl.t = Hashtbl.create 256

(* The declared uid a reference from [unit] stands for: a reference
   inside a module with an interface maps to the interface's uid, or to
   nothing when the value is not exported. *)
let canonical ~unit uid =
  if unit_of_uid uid = Some unit && Hashtbl.mem with_intf unit then
    Hashtbl.find_opt impl_to_intf uid
  else Some uid

let add_use ~unit uid =
  let prev = Option.value ~default:[] (Hashtbl.find_opt value_uses uid) in
  if not (List.mem unit prev) then Hashtbl.replace value_uses uid (unit :: prev)

let use_value ~unit uid = Option.iter (add_use ~unit) (canonical ~unit uid)

let member_key uid ty name =
  match (unit_of_uid uid, type_name ty) with
  | Some unit, Some tname -> Some (unit, tname, name)
  | _ -> None

let mark tbl = Option.iter (fun key -> Hashtbl.replace tbl key ())

(* A module path as a string rooted at a compilation unit; a local
   module of [unit] is rooted at [unit]. *)
let rec path_name ~unit = function
  | Path.Pident id -> if Ident.persistent id then Ident.name id else unit ^ "." ^ Ident.name id
  | Path.Pdot (p, s) -> path_name ~unit p ^ "." ^ s
  | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> path_name ~unit p

let is_omitted (e : expression) =
  e.exp_loc.loc_ghost
  && match e.exp_desc with Texp_construct (_, { cstr_name = "None"; _ }, []) -> true | _ -> false

let use_iterator ~unit =
  let open Tast_iterator in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> use_value ~unit vd.val_uid
    | Texp_construct (_, cd, _) -> mark built (member_key cd.cstr_uid cd.cstr_res cd.cstr_name)
    | Texp_field (_, _, ld) -> mark read (member_key ld.lbl_uid ld.lbl_res ld.lbl_name)
    | _ -> ());
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
      Option.iter
        (fun uid ->
          List.iter
            (function
              | Asttypes.Optional l, Some arg when not (is_omitted arg) ->
                Hashtbl.replace passed (uid, l) ()
              | _ -> ())
            args)
        (canonical ~unit vd.val_uid)
    | _ -> ());
    default_iterator.expr it e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (lds, _) ->
      List.iter
        (fun (_, (ld : Types.label_description), (p : pattern)) ->
          match p.pat_desc with
          | Tpat_any -> ()
          | _ -> mark read (member_key ld.lbl_uid ld.lbl_res ld.lbl_name))
        lds
    | _ -> ());
    default_iterator.pat it p
  in
  let module_expr it (me : module_expr) =
    (match me.mod_desc with
    | Tmod_ident (p, _) -> whole := (path_name ~unit p, unit) :: !whole
    | _ -> ());
    default_iterator.module_expr it me
  in
  let structure_item it (item : structure_item) =
    match item.str_desc with
    | Tstr_module { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ } ->
      Hashtbl.replace aliases (unit ^ "." ^ Ident.name id) (path_name ~unit p)
    | _ -> default_iterator.structure_item it item
  in
  let open_declaration it (od : open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default_iterator.open_declaration it od
  in
  { default_iterator with expr; pat; module_expr; structure_item; open_declaration }

(* Rewrite the longest aliased prefix of [path] until none is left. *)
let rec resolve path =
  let rec go prefix rest =
    match Hashtbl.find_opt aliases prefix with
    | Some target -> Some (String.concat "." (target :: rest))
    | None -> (
      match String.rindex_opt prefix '.' with
      | None -> None
      | Some i ->
        go (String.sub prefix 0 i)
          (String.sub prefix (i + 1) (String.length prefix - i - 1) :: rest))
  in
  match go path [] with Some p when p <> path -> resolve p | _ -> path

(* ---- the scan ---- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: root :: libdir :: dirs ->
    let trees =
      List.sort_uniq compare dirs
      |> List.concat_map (fun dir -> typed_trees (Filename.concat root dir))
      |> List.map Cmt_format.read_cmt
      |> List.filter (fun (infos : Cmt_format.cmt_infos) -> infos.cmt_sourcefile <> None)
    in
    let intfs, impls =
      List.partition
        (fun (infos : Cmt_format.cmt_infos) ->
          match infos.cmt_annots with Interface _ -> true | _ -> false)
        trees
    in
    List.iter (fun (infos : Cmt_format.cmt_infos) -> Hashtbl.replace with_intf infos.cmt_modname ()) intfs;
    (* Declarations: interfaces first, so a member declared in both is
       reported at its interface. *)
    List.iter
      (fun (infos : Cmt_format.cmt_infos) ->
        let file = Option.get infos.cmt_sourcefile and unit = infos.cmt_modname in
        let types = type_iterator ~file ~unit in
        match infos.cmt_annots with
        | Interface sg when under libdir file ->
          declare_signature ~file ~unit ~path:unit sg;
          types.signature types sg
        | Implementation str when under libdir file ->
          if not (Hashtbl.mem with_intf unit) then declare_structure ~file ~unit str;
          types.structure types str;
          List.iter
            (fun ((impl : Types.value_description), (intf : Types.value_description)) ->
              Hashtbl.replace impl_to_intf impl.val_uid intf.val_uid)
            infos.cmt_value_dependencies
        | _ -> ())
      (intfs @ impls);
    (* Uses, from every implementation under the DIRs. *)
    List.iter
      (fun (infos : Cmt_format.cmt_infos) ->
        match infos.cmt_annots with
        | Implementation str ->
          let it = use_iterator ~unit:infos.cmt_modname in
          it.structure it str
        | _ -> ())
      impls;
    List.iter
      (fun (path, unit) ->
        List.iter (add_use ~unit)
          (Option.value ~default:[] (Hashtbl.find_opt module_values (resolve path))))
      !whole;
    (* Findings. *)
    let findings = ref [] in
    let report file line kind name = findings := (file, line, kind, name) :: !findings in
    Hashtbl.iter
      (fun uid v ->
        let uses = Option.value ~default:[] (Hashtbl.find_opt value_uses uid) in
        if v.v_intf && List.exists (fun u -> u <> v.v_unit) uses then ()
        else if v.v_intf && uses <> [] then
          report v.v_file v.v_line "value used only in its own module" v.v_name
        else if uses = [] then report v.v_file v.v_line "dead value" v.v_name;
        List.iter
          (fun l ->
            if not (Hashtbl.mem passed (uid, l)) then
              report v.v_file v.v_line "optional argument never passed" (v.v_name ^ " ?" ^ l))
          v.v_opts)
      values;
    let unused tbl kind used =
      Hashtbl.iter
        (fun key m -> if not (Hashtbl.mem used key) then report m.m_file m.m_line kind m.m_name)
        tbl
    in
    unused ctors "constructor never built" built;
    unused fields "field never read" read;
    let findings = List.sort_uniq compare !findings in
    List.iter (fun (file, line, kind, name) -> Printf.printf "%s:%d: %s %s\n" file line kind name) findings;
    Printf.printf "%d findings among %d values (%d optional arguments), %d constructors, %d fields\n"
      (List.length findings) (Hashtbl.length values)
      (Hashtbl.fold (fun _ v n -> n + List.length v.v_opts) values 0)
      (Hashtbl.length ctors) (Hashtbl.length fields);
    if findings <> [] then exit 1
  | _ ->
    prerr_endline "usage: dead_code.exe ROOT LIBDIR DIR...";
    exit 2
