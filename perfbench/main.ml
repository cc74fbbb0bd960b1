(* One benchmark run of one workload in this process, printed as one JSON
   line on stdout:

     main.exe --workload NAME --seed N --trace 0|1 [--check 0|1]

   run.py starts a fresh process per run (Wcache and Kmem keep
   process-global registries), repeats, checks and aggregates. *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_num x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 and check = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set_int trace, "0|1 run through the per-layer probes");
      ("--check", Arg.Set_int check, "0|1 run the costly output checks (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --trace 0|1 [--check 0|1]";
  let run =
    match List.assoc_opt !workload Perfbench.Workloads.all with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let o = run ~seed:!seed ~traced:(!trace = 1) ~check:(!check = 1) in
  let floats kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs) in
  let open Perfbench.Workloads in
  print_endline
    (json_obj
       [
         ("timed_start_ns", string_of_int o.region.start_ns);
         ("wall_ns", string_of_int o.region.wall_ns);
         ("work", string_of_int o.work);
         ("attempted", string_of_int o.attempted);
         ("alloc_words", json_num o.region.alloc_words);
         ("top_heap_bytes", string_of_int o.region.top_heap_bytes);
         ("ocaml_version", json_string Sys.ocaml_version);
         ("failed", string_of_int o.failed);
         ("fail_share_num", string_of_int o.fail_share_num);
         ("fingerprint", json_string o.fingerprint);
         ("gates", json_obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) o.gates));
         ("extra", floats o.extra);
         ("layers", floats o.layers);
       ])
