(** The barrier-discipline exhibit: an append-only record log over a raw
    {!Kblock.Io.t} that never flushes.  Deliberately broken — each entry
    point is a minimal specimen of one kdur rule (R16 unordered
    dependent write, R17 ack-before-durable, R18 barrier elision at a
    wrapper boundary), grandfathered in ratchet.baseline, and
    [append_chained] doubles as the runtime driver that provokes the
    {!Kblock.Wcache} audit for the static/runtime reconciliation.  See
    the implementation for the specimen-by-specimen commentary.  Do not
    take durability advice from this module. *)

type t

val attach : Kblock.Io.t -> t
(** Open a log over the device; trusts the header if one is readable. *)

val records : t -> int

val append : t -> bytes -> (int, Ksim.Errno.t) result
(** Append one record, returning its block number.  Volatile by honest
    contract: the caller keeps the flush obligation.
    @orders_after: t *)

val append_retry : t -> bytes -> (int, Ksim.Errno.t) result
(** [append] with one retry on [EAGAIN] — and no durability contract:
    the R18 specimen. *)

val append_chained : t -> bytes -> bytes -> unit Ksim.Errno.r
(** Append [a], then a second record derived from reading [a] straight
    back through the cache, with no barrier between: the R16 specimen,
    and the runtime audit driver. *)

val commit : t -> unit Ksim.Errno.r
(** Write the record count into the header and ack — without a flush,
    despite claiming the fsync contract: the R17 specimen.
    @durable *)
