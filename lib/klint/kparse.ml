(* Parsing front end: one .ml file to a Parsetree.structure (or one .mli
   to a signature) via the installed compiler's own parser
   (compiler-libs), so klint sees exactly the syntax the build sees. *)

let message_of_exn exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | Some `Already_displayed | None -> Printexc.to_string exn

let parse path =
  match Pparse.parse_implementation ~tool_name:"klint" path with
  | structure -> Ok structure
  | exception exn -> Error (message_of_exn exn)

let parse_interface path =
  match Pparse.parse_interface ~tool_name:"klint" path with
  | signature -> Ok signature
  | exception exn -> Error (message_of_exn exn)

(* [parse_files ~root files]: the root-relative [files] that parse, in
   order, and the ones that do not, with their messages. *)
let parse_files ~root files =
  List.partition_map
    (fun rel ->
      match parse (Filename.concat root rel) with
      | Ok structure -> Left (rel, structure)
      | Error msg -> Right (rel, msg))
    files
