type kind =
  | Meta
  | Data_write
  | Data_read
  | Net
  | Churn

let kind_id = function
  | Meta -> 0
  | Data_write -> 1
  | Data_read -> 2
  | Net -> 3
  | Churn -> 4

let kind_name = function
  | Meta -> "meta"
  | Data_write -> "dwrite"
  | Data_read -> "dread"
  | Net -> "net"
  | Churn -> "churn"

let all_kinds = [ Meta; Data_write; Data_read; Net; Churn ]

let kind_of_name = function
  | "meta" -> Some Meta
  | "dwrite" -> Some Data_write
  | "dread" -> Some Data_read
  | "net" -> Some Net
  | "churn" -> Some Churn
  | _ -> None

type tenant_class = {
  cname : string;
  weight : int;
  mix : (kind * int) list;
}

type t = {
  tenants : int;
  ops_per_tenant : int;
  keyspace : int;
  payload : int;
  classes : tenant_class list;
}

let default =
  {
    tenants = 500;
    ops_per_tenant = 8;
    keyspace = 48;
    payload = 2048;
    classes =
      [
        {
          cname = "interactive";
          weight = 5;
          mix = [ (Meta, 5); (Data_read, 3); (Data_write, 1); (Net, 2) ];
        };
        { cname = "bulk"; weight = 2; mix = [ (Data_write, 8); (Data_read, 2); (Meta, 1) ] };
        { cname = "rpc"; weight = 3; mix = [ (Net, 8); (Meta, 1) ] };
        { cname = "churny"; weight = 1; mix = [ (Churn, 6); (Meta, 2) ] };
      ];
  }

let total_ops t = t.tenants * t.ops_per_tenant

let validate t =
  if t.tenants <= 0 then Error "tenants must be positive"
  else if t.ops_per_tenant <= 0 then Error "ops must be positive"
  else if t.keyspace <= 0 then Error "keyspace must be positive"
  else if t.payload < 32 then Error "payload must be at least 32 bytes (the smallest op size)"
  else if t.classes = [] then Error "at least one tenant class required"
  else if List.exists (fun c -> c.weight <= 0) t.classes then
    Error "class weights must be positive"
  else if List.exists (fun c -> c.mix = []) t.classes then Error "empty class mix"
  else if
    List.exists (fun c -> List.exists (fun (_, w) -> w <= 0) c.mix) t.classes
  then Error "mix weights must be positive"
  else Ok t

(* Parsing ----------------------------------------------------------------- *)

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && s.[!i] = ' ' do incr i done;
  while !j >= !i && s.[!j] = ' ' do decr j done;
  String.sub s !i (!j - !i + 1)

let split_on c s = String.split_on_char c s |> List.map strip |> List.filter (( <> ) "")

let parse_mix s =
  let entry acc part =
    match acc with
    | Error _ as e -> e
    | Ok mix -> (
        match String.split_on_char '=' part with
        | [ k; w ] -> (
            match (kind_of_name (strip k), int_of_string_opt (strip w)) with
            | Some kind, Some weight -> Ok ((kind, weight) :: mix)
            | None, _ -> Error (Printf.sprintf "unknown op kind %S" (strip k))
            | _, None -> Error (Printf.sprintf "bad mix weight %S" (strip w)))
        | _ -> Error (Printf.sprintf "bad mix entry %S (want kind=weight)" part))
  in
  Result.map List.rev (List.fold_left entry (Ok []) (split_on ',' s))

let parse_class s =
  match String.split_on_char ':' s with
  | [ name; weight; mix ] -> (
      match int_of_string_opt (strip weight) with
      | None -> Error (Printf.sprintf "bad class weight %S" (strip weight))
      | Some w ->
          Result.map (fun mix -> { cname = strip name; weight = w; mix }) (parse_mix mix))
  | _ -> Error (Printf.sprintf "bad class %S (want name:weight:mix)" s)

let parse_classes s =
  let entry acc part =
    match acc with
    | Error _ as e -> e
    | Ok classes -> Result.map (fun c -> c :: classes) (parse_class part)
  in
  Result.map List.rev (List.fold_left entry (Ok []) (split_on '|' s))

let of_string s =
  let ( let* ) = Result.bind in
  let field acc part =
    let* t = acc in
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "bad field %S (want key=value)" part)
    | Some i -> (
        let key = strip (String.sub part 0 i) in
        let value = strip (String.sub part (i + 1) (String.length part - i - 1)) in
        let int_field set =
          match int_of_string_opt value with
          | Some n -> Ok (set n)
          | None -> Error (Printf.sprintf "bad integer for %s: %S" key value)
        in
        match key with
        | "tenants" -> int_field (fun n -> { t with tenants = n })
        | "ops" -> int_field (fun n -> { t with ops_per_tenant = n })
        | "keyspace" -> int_field (fun n -> { t with keyspace = n })
        | "payload" -> int_field (fun n -> { t with payload = n })
        | "classes" -> Result.map (fun classes -> { t with classes }) (parse_classes value)
        | _ -> Error (Printf.sprintf "unknown field %S" key))
  in
  let* t = List.fold_left field (Ok default) (split_on ';' s) in
  validate t

let to_string t =
  let mix_str mix =
    String.concat ","
      (List.map (fun (k, w) -> Printf.sprintf "%s=%d" (kind_name k) w) mix)
  in
  let class_str c = Printf.sprintf "%s:%d:%s" c.cname c.weight (mix_str c.mix) in
  Printf.sprintf "tenants=%d;ops=%d;keyspace=%d;payload=%d;classes=%s" t.tenants
    t.ops_per_tenant t.keyspace t.payload
    (String.concat "|" (List.map class_str t.classes))

let pp fmt t = Format.pp_print_string fmt (to_string t)
