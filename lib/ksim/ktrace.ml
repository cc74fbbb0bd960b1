(* Bounded in-memory event trace, the simulator's dmesg.  Checkers record
   violations here so tests can assert on them without exceptions.  Also
   the one runtime fact sink: the only module that knows the export
   format. *)

type event = {
  seq : int;
  category : string;
  message : string;
}

type t = {
  capacity : int;
  buf : event Queue.t;
  mutable next_seq : int;
}

let create ?(capacity = 4096) () = { capacity; buf = Queue.create (); next_seq = 0 }

let emit t ~category message =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  Queue.push { seq; category; message } t.buf;
  if Queue.length t.buf > t.capacity then ignore (Queue.pop t.buf)

let emitf t ~category fmt = Fmt.kstr (fun msg -> emit t ~category msg) fmt

let events t = List.of_seq (Queue.to_seq t.buf)

let count t ~category =
  Queue.fold (fun n e -> if String.equal e.category category then n + 1 else n) 0 t.buf

let total t = t.next_seq

let clear t =
  Queue.clear t.buf;
  t.next_seq <- 0

let pp_event ppf e = Fmt.pf ppf "[%6d] %-12s %s" e.seq e.category e.message

let global = create ~capacity:16384 ()

(* Runtime facts ------------------------------------------------------------ *)

type lock_edge = { held : string; acquired : string }
type heap_event = { kind : string; heap : string; site : string; count : int }

type order_violation = {
  cache : string;
  blkno : int;
  read_seq : int;
  write_blkno : int;
  write_seq : int;
}

type fact =
  | Lock_edge of lock_edge
  | Heap_event of heap_event
  | Order_violation of order_violation

let sources : (unit -> fact list) list ref = ref [] (* newest first *)
let register_source f = sources := f :: !sources
let facts () = List.concat_map (fun f -> f ()) (List.rev !sources)

let line_of_fact = function
  | Lock_edge e -> Printf.sprintf "lock_edge\t%s\t%s\n" e.held e.acquired
  | Heap_event e -> Printf.sprintf "heap\t%s\t%s\t%s\t%d\n" e.kind e.heap e.site e.count
  | Order_violation v ->
      Printf.sprintf "order\t%s\t%d\t%d\t%d\t%d\n" v.cache v.blkno v.read_seq v.write_blkno
        v.write_seq

(* The lines are built first and written in one go, so processes
   appending to the same file at once cannot interleave inside a line
   while one process's facts fit the channel buffer (64 KB; a test
   binary exports a few KB). *)
let write_facts path = function
  | [] -> ()
  | fs ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (String.concat "" (List.map line_of_fact fs)))

let fact_of_line line =
  let int = int_of_string_opt in
  match String.split_on_char '\t' line with
  | [ "lock_edge"; held; acquired ] -> Some (Lock_edge { held; acquired })
  | [ "heap"; kind; heap; site; count ] ->
      Option.map (fun count -> Heap_event { kind; heap; site; count }) (int count)
  | [ "order"; cache; a; b; c; d ] -> (
      match (int a, int b, int c, int d) with
      | Some blkno, Some read_seq, Some write_blkno, Some write_seq ->
          Some (Order_violation { cache; blkno; read_seq; write_blkno; write_seq })
      | _ -> None)
  | _ -> None

let read_facts path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec loop n acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | "" -> loop (n + 1) acc
            | line -> (
                match fact_of_line line with
                | Some f -> loop (n + 1) (f :: acc)
                | None -> Error (Printf.sprintf "%s:%d: malformed runtime fact %S" path n line))
          in
          loop 1 [])

(* The one runtime export: with KSIM_TRACE set (scripts/ci.sh sets it
   across `dune runtest`), every process appends its facts on exit. *)
let () =
  match Sys.getenv_opt "KSIM_TRACE" with
  | Some path when path <> "" ->
      at_exit (fun () -> try write_facts path (facts ()) with Sys_error _ -> ())
  | Some _ | None -> ()
