(* The benchmark's own model of a dataset under mutation: dense vertex
   names and hyperedge member lists with hgd's on-wire semantics
   (appends at the next id, DELEDGE shifts later ids down).  The single
   writer generates its ops against it, every mutation ack is checked
   against it, and the oracle rebuilds the hypergraph at any epoch from
   it, independently of the server's [Live] state. *)

module H = Hp_hypergraph.Hypergraph
module Wal = Hp_wal.Wal

type t = {
  mutable names : string array;
  mutable nv : int;
  mutable edges : int array array;
  mutable ne : int;
  mutable epoch : int;
}

let of_hypergraph h =
  let nv = H.n_vertices h and ne = H.n_edges h in
  {
    names = Array.init (max 16 nv) (fun i -> if i < nv then H.vertex_name h i else "");
    nv;
    edges = Array.init (max 16 ne) (fun e -> if e < ne then H.edge_members h e else [||]);
    ne;
    epoch = 0;
  }

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* Apply one op; returns the id it assigned (adds only). *)
let apply m (op : Wal.op) =
  m.epoch <- m.epoch + 1;
  match op with
  | Wal.Add_vertex { name } ->
    m.names <- grow m.names m.nv "";
    m.names.(m.nv) <- name;
    m.nv <- m.nv + 1;
    Some (m.nv - 1)
  | Wal.Add_edge { members; _ } ->
    m.edges <- grow m.edges m.ne [||];
    m.edges.(m.ne) <- Array.copy members;
    m.ne <- m.ne + 1;
    Some (m.ne - 1)
  | Wal.Del_edge { edge } ->
    Array.blit m.edges (edge + 1) m.edges edge (m.ne - edge - 1);
    m.ne <- m.ne - 1;
    None

let members m e = m.edges.(e)

let to_hypergraph m =
  H.of_arrays ~vertex_names:(Array.sub m.names 0 m.nv) ~n_vertices:m.nv
    (Array.sub m.edges 0 m.ne)
