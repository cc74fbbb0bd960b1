type op = {
  kind : Spec.kind;
  key : int;
  size : int;
  think_ns : int;
}

type tenant = {
  id : int;
  class_ix : int;
  cls : Spec.tenant_class;
  rng : Ksim.Rng.t;
}

type t = {
  spec : Spec.t;
  tenants : tenant array;
  zipf : Dist.Zipf.t;
  size : Dist.Bounded_pareto.t;
  think : Dist.Bounded_pareto.t;
}

(* Per-tenant stream: the registry seed scrambled with the tenant id.
   SplitMix64 decorrelates nearby seeds, so consecutive ids give
   independent-looking streams while staying a pure function of
   (seed, id). *)
let tenant_rng ~seed id =
  Ksim.Rng.create
    Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (id + 1)))

let pick_weighted rng weighted =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weighted in
  let r = Ksim.Rng.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (x, w) :: rest -> if r < acc + w then x else go (acc + w) rest
  in
  go 0 weighted

let plan spec ~seed =
  let classes = List.mapi (fun i c -> ((i, c), c.Spec.weight)) spec.Spec.classes in
  let tenants =
    Array.init spec.Spec.tenants (fun id ->
        let rng = tenant_rng ~seed id in
        let class_ix, cls = pick_weighted rng classes in
        { id; class_ix; cls; rng })
  in
  {
    spec;
    tenants;
    zipf = Dist.Zipf.create ~n:spec.Spec.keyspace ();
    size = Dist.Bounded_pareto.create ~alpha:1.2 ~xmin:32 ~xmax:spec.Spec.payload;
    think = Dist.Bounded_pareto.create ~alpha:1.3 ~xmin:200 ~xmax:200_000;
  }

let spec t = t.spec
let tenants t = t.tenants

(* Fixed draw count per op — kind, key, size, think — so a tenant's
   stream position depends only on how many ops it has generated. *)
let next_op t tenant =
  let kind = pick_weighted tenant.rng tenant.cls.Spec.mix in
  let key = Dist.Zipf.draw t.zipf tenant.rng in
  let size = Dist.Bounded_pareto.draw t.size tenant.rng in
  let think_ns = Dist.Bounded_pareto.draw t.think tenant.rng in
  { kind; key; size; think_ns }

let class_histogram t =
  List.mapi
    (fun i c ->
      let n =
        Array.fold_left (fun acc tn -> if tn.class_ix = i then acc + 1 else acc) 0 t.tenants
      in
      (c.Spec.cname, n))
    t.spec.Spec.classes
