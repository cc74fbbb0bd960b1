(** Bounded in-memory event trace — the simulator's [dmesg] — and the
    process's one runtime fact sink.

    Safety checkers record violations here so that tests and the analysis
    harness can observe them without relying on exceptions. *)

type event = {
  seq : int;  (** monotonically increasing sequence number *)
  category : string;  (** e.g. ["race"], ["uaf"], ["journal"] *)
  message : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of at most [capacity] (default 4096) most recent events. *)

val emit : t -> category:string -> string -> unit
val emitf : t -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

val events : t -> event list
(** Retained events, oldest first. *)

val count : t -> category:string -> int
(** Number of retained events in [category]. *)

val total : t -> int
(** Number of events ever emitted (including evicted ones). *)

val clear : t -> unit
val pp_event : Format.formatter -> event -> unit

val global : t
(** Shared default trace used when a component is not given its own. *)

(** {1 Runtime facts}

    The runtime ground truth klint's static/runtime reconciliations
    check their analyses against.  Each runtime checker registers one
    source at module init; when the [KSIM_TRACE] environment variable
    names a file, every process appends all sources' facts there at
    exit, one tagged, tab-separated line per fact:

    {v
lock_edge  held  acquired
heap       kind  heap  site  count
order      cache blkno read_seq write_blkno write_seq
    v} *)

type lock_edge = { held : string; acquired : string }
(** Some thread acquired [acquired] while holding [held] (lock instance
    names, e.g. ["i_lock:7"]). *)

type heap_event = {
  kind : string;  (** ["uaf"], ["double_free"] or ["leak"] *)
  heap : string;
  site : string;  (** allocation site *)
  count : int;
}

type order_violation = {
  cache : string;  (** the write-back cache's name *)
  blkno : int;  (** the block read back while unflushed *)
  read_seq : int;  (** write sequence of the unflushed content read *)
  write_blkno : int;  (** the dependent write issued barrier-free *)
  write_seq : int;
}

type fact =
  | Lock_edge of lock_edge
  | Heap_event of heap_event
  | Order_violation of order_violation

val register_source : (unit -> fact list) -> unit
(** Add a source of facts, read at exit (and by {!facts}). *)

val facts : unit -> fact list
(** Every registered source's facts, in registration order. *)

val write_facts : string -> fact list -> unit
(** Append facts to a file, creating it; writes nothing (and creates
    nothing) for [[]].  Append mode, so every process of a test suite
    can share one file. *)

val read_facts : string -> (fact list, string) result
(** Parse a file {!write_facts} wrote.  Blank lines are skipped; any
    other line that is not exactly one fact (unknown tag, wrong field
    count, non-integer field) is an error naming the path and line
    number, so a truncated file cannot pass reconciliation vacuously. *)
