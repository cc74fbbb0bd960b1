(** The volatile write-back cache layer: barrier semantics made explicit.

    [write] acks into a bounded in-cache dirty set (evicting via seeded
    writeback when full); [flush] is the full barrier that drains it.  A
    crash loses an arbitrary subset — in arbitrary order — of the writes
    issued since the last completed flush, so crash is no longer a prefix
    of the write sequence ({!crash_frames} / {!crash_residues} enumerate
    the post-crash images).  A runtime barrier-discipline checker
    ({!audit}) flags ALICE-style ordering violations: a block whose
    unflushed content is read back as a dependency of a later write
    without an intervening flush.

    Failpoint sites, registered (disabled) when [fp] is supplied:
    [<name>.flush-dropped] makes [flush] ack without draining or closing
    the barrier epoch (a lying drive); [<name>.writeback-reorder] makes
    capacity eviction destage a seeded random victim instead of the
    oldest. *)

type t

type entry = {
  wseq : int;
  blkno : int;
  data : string;
  fua : bool;
}

type frame = {
  durable : entry list;  (** oldest first; definitely on media *)
  volatile : entry list;
      (** oldest first; any subset in any order may have landed *)
}

type violation = {
  v_blkno : int;  (** the block read back while unflushed *)
  v_read_seq : int;  (** wseq of the unflushed content read *)
  v_write_blkno : int;  (** the dependent write issued barrier-free *)
  v_write_seq : int;
}

val create :
  ?name:string ->
  ?capacity:int ->
  ?fp:Ksim.Failpoint.t ->
  ?seed:int ->
  ?trace:Ksim.Ktrace.t ->
  Io.t ->
  t
(** Defaults: name ["wcache"], capacity 32 dirty blocks, no failpoints,
    seed 0, {!Ksim.Ktrace.global}.
    @raise Invalid_argument on [capacity < 1]. *)

val io : t -> Io.t
(** The cache as an [Io.t] layer ([write_fua] is native: write-through
    plus base FUA). *)

val name : t -> string
val flush_dropped_site : t -> string
val writeback_reorder_site : t -> string

val read : t -> int -> bytes Ksim.Errno.r
val write : t -> int -> bytes -> unit Ksim.Errno.r
val write_fua : t -> int -> bytes -> unit Ksim.Errno.r
val flush : t -> unit Ksim.Errno.r

val crash : t -> unit
(** The canonical single crash: every unflushed write is gone.  The base
    device keeps its own pending set — pair with [Blockdev.crash] for
    total loss of everything unflushed. *)

(** {1 Crash-surface enumeration}

    The cache logs every write since the last completed flush (the open
    {e barrier epoch}) plus the closed epochs since {!take_durable} was
    last called.  A consumer materializes post-crash images by replaying
    a residue over its snapshot of the media as of the last
    {!take_durable}.  Entry data is immutable, so over a copy-on-write
    {!Media.copy} of that snapshot an image costs one pointer per chunk
    plus the chunks the residue touches. *)

val crash_frames : t -> frame list
(** One frame per barrier interval in the retained window: the epochs
    before it are durable, of the epoch itself any subset in any order
    may have landed. *)

val crash_residues : t -> limit:int -> entry list list
(** Up to [limit] distinct write sequences sampled from the frames
    (round-robin), exhaustive for small volatile sets (all subsets, plus
    permutations up to 3 entries) and otherwise the structured corners —
    nothing, everything, prefixes, suffixes, single-dropped — plus
    seeded draws.  Deterministic in the instance seed and write count.
    Apply a residue in list order over the media snapshot. *)

val take_durable : t -> entry list
(** The closed (durable) epochs, oldest first, clearing them from the
    retained window: fold these into the media snapshot that future
    residues are applied over.  Call after each {!crash_residues} sweep
    to keep enumeration linear in trace length. *)

(** {1 Barrier-discipline audit} *)

val audit : t -> violation list
(** Ordering violations observed so far, oldest first (bounded at 64;
    {!ordering_violations} has the true count).  Each also emitted an
    ["incident"] trace event, feeding the Audit/UNSOUND reconciliation. *)

val ordering_violations : t -> int

val append_violations_to_file : t -> path:string -> unit
(** Append this cache's recorded audit violations to [path], one
    ["name\tblkno\tread_seq\twrite_blkno\twrite_seq"] line each — the
    wire format klint's kdur reconciliation ([--wcache-violations])
    consumes.  No-op when the audit is clean. *)

val exported_violations : unit -> (string * violation) list
(** Every violation recorded in this process (bounded per cache as
    {!audit}), oldest first, with its cache's name.  The sink holds no
    cache, so caches stay collectable and their violations outlive them. *)

val export_env : string
(** ["KSIM_WCACHE_EXPORT"].  When set to a file path, every process
    appends {!exported_violations} there at exit; scripts/ci.sh sets it
    across [dune runtest] so kdur's static R16 findings are checked
    against every violation the suite actually provoked. *)

(** {1 Counters} *)

val dirty_blocks : t -> int
val unflushed_writes : t -> int
(** Writes in the open barrier epoch (volatile right now). *)

val writes : t -> int
val reads : t -> int
val cache_hits : t -> int
val flushes : t -> int
val flush_drops : t -> int
val writebacks : t -> int
val reordered_writebacks : t -> int
val writeback_errors : t -> int
val fua_writes : t -> int

val publish : t -> Ksim.Kstats.t -> string -> unit
(** Add cache accounting into a {!Ksim.Kstats} under [prefix ^ ".writes"],
    [".writebacks"], [".reordered"], [".flushes"], [".flush-drops"],
    [".ordering-violations"]. *)
