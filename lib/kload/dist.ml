(* Heavy-tailed draws by inverse CDF: one [Rng.float] per sample, no
   rejection loops, so the number of RNG draws per generated operation
   is fixed and the per-tenant streams stay aligned across replays. *)

let pareto rng ~alpha ~xmin =
  if alpha <= 0.0 || xmin <= 0.0 then invalid_arg "Dist.pareto";
  let u = 1.0 -. Ksim.Rng.float rng (* in (0, 1] *) in
  xmin /. (u ** (1.0 /. alpha))

(* Inverse CDF of the Pareto conditioned on [x <= xmax]: truncation by
   construction rather than by resampling.  Everything that does not
   depend on the draw is computed once, by the same float operations a
   per-draw evaluation would use, so samples are bit-identical to it. *)
module Bounded_pareto = struct
  type t = {
    xmin : int;
    xmax : int;
    fxmin : float;
    fxmax : float;
    l : float; (* xmin ** alpha *)
    h : float; (* xmax ** alpha *)
    hl : float; (* h *. l *)
    exponent : float; (* -1 / alpha *)
  }

  let create ~alpha ~xmin ~xmax =
    if alpha <= 0.0 || xmin <= 0 || xmax < xmin then invalid_arg "Dist.Bounded_pareto.create";
    let fxmin = float_of_int xmin and fxmax = float_of_int xmax in
    let l = fxmin ** alpha and h = fxmax ** alpha in
    { xmin; xmax; fxmin; fxmax; l; h; hl = h *. l; exponent = -1.0 /. alpha }

  let draw t rng =
    let u = Ksim.Rng.float rng in
    let x = (-.((u *. t.h) -. u *. t.l -. t.h) /. t.hl) ** t.exponent in
    let x = Float.min t.fxmax (Float.max t.fxmin x) in
    min t.xmax (max t.xmin (int_of_float x))
end

module Zipf = struct
  type t = {
    n : int;
    cdf : float array; (* cdf.(k) = P(rank <= k), cdf.(n-1) = 1.0 *)
  }

  let create ?(s = 1.01) ~n () =
    if n <= 0 || s < 0.0 then invalid_arg "Dist.Zipf.create";
    let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun wk ->
          acc := !acc +. (wk /. total);
          !acc)
        w
    in
    cdf.(n - 1) <- 1.0;
    { n; cdf }

  let n t = t.n

  let draw t rng =
    let u = Ksim.Rng.float rng in
    (* First index with cdf.(i) > u. *)
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end
