(** Simulated manual kernel allocator with lifecycle tracking.

    The classic C memory bugs — use-after-free, double-free, leaks — become
    observable events.  Unsafe modules (roadmap steps 0–2) manage lifetimes
    through this allocator by hand; the point of roadmap step 3 is that a
    whole class of these events becomes impossible by construction. *)

exception Use_after_free of { site : string; id : int }
exception Double_free of { site : string; id : int }

type 'a ptr
(** A manually managed pointer to a value of type ['a]. *)

type t
(** A heap: a set of live objects plus violation counters. *)

val create : ?strict:bool -> name:string -> unit -> t
(** [create ~name ()] makes an empty heap.  With [strict] (default [true])
    violations raise; with [~strict:false] they are only counted — modelling
    the silent-corruption behaviour of real C. *)

val alloc : t -> site:string -> 'a -> 'a ptr
(** Allocate an object; [site] labels the allocation for leak reports. *)

val read : 'a ptr -> 'a
(** @raise Use_after_free when the object was freed. *)

val write : 'a ptr -> 'a -> unit
(** Overwrite the object.  In non-strict heaps a write-after-free is
    counted but otherwise ignored. *)

val free : 'a ptr -> unit
(** Release the object. @raise Double_free when already freed (strict). *)

val is_live : 'a ptr -> bool

val live_count : t -> int
val allocated : t -> int
val freed : t -> int
val uaf_events : t -> int
val double_free_events : t -> int

type leak = { leak_id : int; leak_site : string }

val leaks : t -> leak list
(** Objects still live, i.e. leaked if the owning module claims quiescence. *)

val pp_report : Format.formatter -> t -> unit

val exported_events : unit -> (string * string * string * int) list
(** [(kind, heap, site, count)] per allocation site of every heap in this
    process: use-after-free and double-free counts, kept as detected, and
    each heap's latest {!leaks} snapshot — the granularity the
    static/runtime reconciliation keys on.  The process sink holding them
    holds no heap, so heaps stay collectable and their events outlive them. *)

val export_env : string
(** ["KSIM_KMEM_EXPORT"]: when set to a file path, {!exported_events}
    are appended there at process exit, one "kind\theap\tsite\tcount"
    line each — the format [klint --kmem-events] reconciles against
    kown's static findings. *)
