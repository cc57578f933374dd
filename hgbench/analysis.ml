(* Analysis replies computed in-process, field for field as hgd renders
   them (lib/server/server.ml keeps its payload code private).  Two
   users: the oracle, which peels with the [Naive] strategy; and the
   traced replay, which calls hgd's own default kernels inside spans. *)

module H = Hp_hypergraph.Hypergraph
module HC = Hp_hypergraph.Hypergraph_core
module HP = Hp_hypergraph.Hypergraph_path
module P = Hp_server.Protocol

(* Wraps one library call; the replay's wraps it in a span. *)
type wrap = { run : 'a. string -> (unit -> 'a) -> 'a }

let no_wrap = { run = (fun _ f -> f ()) }

(* Work counts read from the kernels' own result stats. *)
type counts = {
  mutable peel_rounds : int;
  mutable maximality_checks : int;
  mutable bfs_sources : int;
}

let counts () = { peel_rounds = 0; maximality_checks = 0; bfs_sources = 0 }

let float3 = Printf.sprintf "%.3f"
let float4 = Printf.sprintf "%.4f"

let names h ids = String.concat " " (Array.to_list (Array.map (H.vertex_name h) ids))

let powerlaw_lines hist =
  match Hp_stats.Powerlaw.fit_loglog hist with
  | fit ->
    [
      ("powerlaw_gamma", float4 fit.gamma);
      ("powerlaw_log10_c", float4 fit.log10_c);
      ("powerlaw_r2", float4 fit.r2);
    ]
  | exception Invalid_argument _ -> [ ("powerlaw_fit", "n/a") ]

let stats w c h =
  let summary = HP.component_summary h in
  let sweep = HP.sweep_stats () in
  let diam, apl =
    w.run "hypergraph_path.sweep" (fun () -> HP.diameter_and_average_path ~stats:sweep h)
  in
  c.bfs_sources <- c.bfs_sources + HP.sources_visited sweep;
  let largest =
    if Array.length summary = 0 then []
    else
      let nv, ne = summary.(0) in
      [
        ("largest_component_vertices", string_of_int nv);
        ("largest_component_hyperedges", string_of_int ne);
      ]
  in
  [
    ("vertices", string_of_int (H.n_vertices h));
    ("hyperedges", string_of_int (H.n_edges h));
    ("incidence", string_of_int (H.total_incidence h));
    ("max_vertex_degree", string_of_int (H.max_vertex_degree h));
    ("max_hyperedge_size", string_of_int (H.max_edge_size h));
    ("components", string_of_int (Array.length summary));
  ]
  @ largest
  @ [ ("diameter", string_of_int diam); ("average_path", float3 apl) ]
  @ w.run "stats.powerlaw" (fun () ->
        powerlaw_lines (Hp_stats.Degree_dist.vertex_histogram h))

(* [cores] is the dataset's maintained decomposition, as hgd serves
   KCORE on a mutated dataset. *)
let kcore ?strategy w c ~cores h k =
  let (result : HC.result), k =
    match (cores, k) with
    | Some dec, _ ->
      let k = Option.value k ~default:dec.HC.max_core in
      (w.run "hypergraph_core.core_of_decomposition" (fun () -> HC.core_of_decomposition h dec k), k)
    | None, Some k -> (w.run "hypergraph_core.k_core" (fun () -> HC.k_core ?strategy h k), k)
    | None, None ->
      let k, r = w.run "hypergraph_core.max_core" (fun () -> HC.max_core ?strategy h) in
      (r, k)
  in
  c.peel_rounds <- c.peel_rounds + result.stats.peel_rounds;
  c.maximality_checks <- c.maximality_checks + result.stats.maximality_checks;
  [
    ("k", string_of_int k);
    ("core_vertices", string_of_int (H.n_vertices result.core));
    ("core_hyperedges", string_of_int (H.n_edges result.core));
    ("members", names h result.vertex_ids);
  ]

let cover w h (weighting : P.weighting) r =
  let weights =
    match weighting with
    | P.Uniform -> Hp_cover.Weighting.uniform h
    | P.Degree -> Hp_cover.Weighting.degree h
    | P.Degree_squared -> Hp_cover.Weighting.degree_squared h
  in
  let trace =
    w.run "cover.greedy" (fun () ->
        if r <= 1 then Hp_cover.Greedy.vertex_cover_trace ~weights h
        else
          Hp_cover.Greedy.solve ~weights
            ~requirements:(Hp_cover.Multicover.uniform_requirements h ~r)
            h)
  in
  [
    ("weighting", P.weighting_to_string weighting);
    ("r", string_of_int r);
    ("cover_size", string_of_int (Array.length trace.cover));
    ("total_weight", float3 trace.total_weight);
    ("average_degree", float3 (Hp_cover.Cover.average_degree h trace.cover));
    ("members", names h trace.cover);
  ]

let powerlaw w h =
  w.run "stats.powerlaw" (fun () ->
      let hist = Hp_stats.Degree_dist.vertex_histogram h in
      let ls = powerlaw_lines hist in
      match Hp_stats.Powerlaw.fit_mle hist with
      | mle ->
        let ks =
          match Hp_stats.Powerlaw.fit_loglog hist with
          | fit ->
            [ ("ks_distance", float4 (Hp_stats.Powerlaw.ks_distance hist ~gamma:fit.gamma ~dmin:1)) ]
          | exception Invalid_argument _ -> []
        in
        ls @ [ ("mle_gamma", float4 mle.gamma_mle); ("mle_tail_n", string_of_int mle.n_tail) ] @ ks
      | exception Invalid_argument _ -> ls)

(* The payload hgd returns for [analysis] on [h] (without its trailing
   [cached] field).  [strategy] is the k-core peel: [Naive] for the
   oracle, hgd's default when omitted. *)
let payload ?strategy ?(wrap = no_wrap) ?(counts = counts ()) ~cores h
    (analysis : P.analysis) =
  match analysis with
  | P.Stats -> stats wrap counts h
  | P.Kcore k -> kcore ?strategy wrap counts ~cores h k
  | P.Cover { weighting; r } -> cover wrap h weighting r
  | P.Powerlaw -> powerlaw wrap h
  | P.Storage -> invalid_arg "Analysis.payload: STORAGE is not in any workload"

(* The oracle: Naive peel, exact path sweep, Greedy cover, from scratch
   (never from a maintained decomposition). *)
let expected h analysis = payload ~strategy:HC.Naive ~cores:None h analysis
