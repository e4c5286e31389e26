(* Seeded inputs. Only this module sees the seed: the server gets a model
   file, query lines and evidence lines.

   The topology and ground truth are the bench model used since the
   first engine benchmark (preferential attachment, 6000 nodes, mean
   out-degree 2, retweet ground truth, generator seed 20120402), so
   every seed runs on the same graph and the same learned model (see
   [learn_seed]). The seed draws the hot set's certified pairs, the
   order of the hot set and of cold_mh's population, and the evidence
   stream. *)

module Rng = Iflow_stats.Rng
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Traverse = Iflow_graph.Traverse
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Generator = Iflow_core.Generator
module Event = Iflow_stream.Event
module Cone = Iflow_plan.Cone
module Planner = Iflow_plan.Planner
module Fingerprint = Iflow_stats.Fingerprint
module Beta = Iflow_stats.Dist.Beta
module Model_io = Iflow_io.Model_io

let bench_model_seed = 20120402

(* Cascades the served model is learned from. Enough that the learned
   means sit near the ground truth, so flows stay as rare as in the
   paper's retweet setting. The cascade stream is fixed, not seeded: a
   model learned from seeded cascades moves borderline MH answers
   between 0 and positive, and cold_mh's right_answer_share (about 10
   right of 115 scored) read 0.043, 0.086 and 0.068 on seeds 1-3. *)
let learn_cascades = 100_000
let learn_seed = 2
(* The hot set holds both classes in the proportions a uniform draw of
   reachable pairs gives (about one in five refused). The seed draws
   the certified pairs and the order; the refused pairs, each costing
   10 ms to over a second of sampling in the set-up warm pass, are drawn
   once from a fixed stream, so set-up work is the same for every seed. *)
let hot_exact = 100
let hot_mh = 28
let hot_refused_seed = 11
(* live_ingest refills this many of the hot set's exact pairs after each
   swap. Only cones of at most [ingest_hot_edges] edges qualify: the
   checker enumerates every refill answer again on every version. A
   refill costs about as much as Cone.extract's walk over the source's
   descendants, which differs widely between sources, so the set is
   large enough that its latency does not hang on a few sources. *)
let ingest_hot_size = 64
let ingest_hot_edges = 10
let batch_events = 256
(* Distinct runner batches, cycled, so ingest figures do not hang on
   the cascade sizes of a few batches. *)
let evidence_batches = 32

(* cold_mh asks a fixed population of planner-refused pairs, drawn once
   from the bench model with this stream (the ROADMAP probe's). A
   seed-drawn population made right_answer_share - a share near 0.1
   over ~150 scored answers - swing by more than its bound from seed to
   seed; the seed still orders the population. *)
let mh_population_seed = 7
let mh_population = 450

type pair = {
  src : int;
  dst : int;
  line : string;  (** the JSONL query line *)
  plan : (Planner.exact, Planner.reason) result;
  cone : Cone.t option;
      (** extracted for refused pairs; certified ones carry their cone
          size in the plan *)
}

let is_exact p = Result.is_ok p.plan

type t = {
  model : Beta_icm.t;
  hot : pair array;  (** hot_read's hot set, warmed during set-up *)
  ingest_hot : pair array;  (** live_ingest's exact-path hot set *)
  cold : pair array;  (** cold_mh's fresh pairs, in asking order *)
  evidence : string array array;  (** runner batches of attributed lines *)
  hash : string;  (** digest of everything the server receives *)
}

let query_line src dst = Printf.sprintf {|{"type":"flow","src":%d,"dst":%d}|} src dst

let bench_graph () =
  let rng = Rng.create bench_model_seed in
  let g = Gen.preferential_attachment rng ~nodes:6000 ~mean_out_degree:2 in
  (g, Generator.retweet_ground_truth rng g)

(* The served model: Beta_icm.train_attributed over cascades simulated
   with Cascade.run from uniformly drawn single sources. Each simulated
   object holds node- and edge-sized arrays, so the cascades are
   trained in chunks and the chunks' pseudo-counts summed over the
   shared Beta(1, 1) prior. *)
let learn rng g truth =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let chunk = 250 in
  let alpha = Array.make m 1.0 and beta = Array.make m 1.0 in
  for _ = 1 to learn_cascades / chunk do
    let part =
      Beta_icm.train_attributed g
        (List.init chunk (fun _ -> Cascade.run rng truth ~sources:[ Rng.int rng n ]))
    in
    for e = 0 to m - 1 do
      let b = Beta_icm.edge_beta part e in
      alpha.(e) <- alpha.(e) +. b.Beta.alpha -. 1.0;
      beta.(e) <- beta.(e) +. b.Beta.beta -. 1.0
    done
  done;
  Beta_icm.create g (Array.init m (fun e -> Beta.v alpha.(e) beta.(e)))

(* Learning takes about half a minute and does not depend on the seed,
   so the first run in a checkout saves the model in [dir] and later
   runs load it. Every run serves the loaded bytes. *)
let learned_model ~dir g truth =
  let path =
    Filename.concat dir (Printf.sprintf "learned-%d-%d.bicm" learn_seed learn_cascades)
  in
  if not (Sys.file_exists path) then begin
    let tmp = path ^ ".tmp" in
    Model_io.save_beta_icm tmp (learn (Rng.create learn_seed) g truth);
    Sys.rename tmp path
  end;
  Model_io.load_beta_icm path

(* Every ordered pair (src, dst) with dst reachable from src, as
   src * n + dst. All edges of a learned model have positive mean, so
   graph reachability is exactly "flow probability above 0". *)
let reachable_pairs g =
  let n = Digraph.n_nodes g in
  let acc = ref [] in
  for s = n - 1 downto 0 do
    let r = Traverse.reachable_from g [ s ] in
    for d = n - 1 downto 0 do
      if d <> s && r.(d) then acc := ((s * n) + d) :: !acc
    done
  done;
  Array.of_list !acc

(* Pairs are classified from outside, as the engine would route them:
   Planner.plan decides exact or MH, and refused pairs keep their
   Cone.extract cone for the brute-force checker. *)
let classify icm (src, dst) =
  let plan = Planner.plan icm ~targets:[ (src, dst) ] ~conditions:[] in
  let cone =
    match plan with
    | Ok _ -> None
    | Error _ -> (
      match Cone.extract icm ~src ~dst with
      | Some c -> Some c
      | None -> failwith "perfbench: drew an unreachable pair")
  in
  { src; dst; line = query_line src dst; plan; cone }

(* Classification costs about a millisecond a pair (both calls walk the
   source's descendants), so large populations split it over two
   domains; the planner keeps no shared state. *)
let classify_all icm codes n =
  let f lo hi =
    Array.init (hi - lo) (fun i ->
        classify icm (codes.(lo + i) / n, codes.(lo + i) mod n))
  in
  let len = Array.length codes in
  if len < 64 then f 0 len
  else begin
    let mid = len / 2 in
    let d = Domain.spawn (fun () -> f mid len) in
    let a = f 0 mid in
    Array.append a (Domain.join d)
  end

(* [count] distinct uniform draws from the reachable universe that
   [keep] accepts, skipping codes in [taken] and adding the kept ones to
   it. Candidates are classified in rounds sized by the acceptance rate
   seen so far. *)
let draw rng universe icm n ~taken ~keep ~count =
  let out = ref [] and k = ref 0 and seen = ref 0 in
  while !k < count do
    if !seen > 50 * (count + 16) then
      failwith "perfbench: pair population exhausted";
    let rate = if !seen = 0 then 1.0 else float_of_int (max 1 !k) /. float_of_int !seen in
    let batch = max 16 (int_of_float (1.1 *. float_of_int (count - !k) /. rate)) in
    let fresh = Hashtbl.create batch in
    let codes = ref [] and c = ref 0 in
    while !c < batch do
      let code = universe.(Rng.int rng (Array.length universe)) in
      if not (Hashtbl.mem taken code || Hashtbl.mem fresh code) then begin
        Hashtbl.replace fresh code ();
        codes := code :: !codes;
        incr c
      end
    done;
    let classified = classify_all icm (Array.of_list (List.rev !codes)) n in
    Array.iter
      (fun p ->
        incr seen;
        if !k < count && keep p then begin
          Hashtbl.replace taken ((p.src * n) + p.dst) ();
          out := p :: !out;
          incr k
        end)
      classified
  done;
  Array.of_list (List.rev !out)

let evidence_pool rng g truth =
  let n = Digraph.n_nodes g in
  Array.init evidence_batches (fun _ ->
      Array.init batch_events (fun _ ->
          Event.to_line
            (Event.of_attributed g
               (Cascade.run rng truth ~sources:[ Rng.int rng n ]))))

let hash_of ~model_digest ~hot ~cold ~evidence =
  let f = Fingerprint.create () in
  Fingerprint.add_string f model_digest;
  Array.iter (fun p -> Fingerprint.add_string f p.line) hot;
  Array.iter (fun p -> Fingerprint.add_string f p.line) cold;
  Array.iter (Array.iter (Fingerprint.add_string f)) evidence;
  Fingerprint.to_hex f

let make ~dir ~seed ~cold_mh =
  let g, truth = bench_graph () in
  let n = Digraph.n_nodes g in
  let root = Rng.create seed in
  let hot_rng = Rng.split root in
  let cold_rng = Rng.split root in
  let evidence_rng = Rng.split root in
  let model = learned_model ~dir g truth in
  let icm = Beta_icm.expected_icm model in
  let universe = reachable_pairs g in
  let refused p = not (is_exact p) in
  (* The refused pairs come from fixed streams and share one [taken]
     table; the certified pairs, which never coincide with them, get
     their own, so no draw shifts another's stream. *)
  let taken = Hashtbl.create 1024 in
  let hot_refused =
    draw (Rng.create hot_refused_seed) universe icm n ~taken ~keep:refused ~count:hot_mh
  in
  let cold =
    if not cold_mh then [||]
    else begin
      let pop =
        draw (Rng.create mh_population_seed) universe icm n ~taken ~keep:refused
          ~count:mh_population
      in
      Rng.shuffle cold_rng pop;
      pop
    end
  in
  let hot_exact_pairs =
    draw hot_rng universe icm n ~taken:(Hashtbl.create 128) ~keep:is_exact ~count:hot_exact
  in
  let hot = Array.append hot_exact_pairs hot_refused in
  Rng.shuffle hot_rng hot;
  let small p =
    match p.plan with Ok e -> e.Planner.cone_edges <= ingest_hot_edges | Error _ -> false
  in
  let ingest_hot =
    match List.filter small (Array.to_list hot_exact_pairs) with
    | l when List.length l >= ingest_hot_size -> Array.sub (Array.of_list l) 0 ingest_hot_size
    | _ -> failwith "perfbench: too few small-cone pairs in the hot set"
  in
  let evidence = evidence_pool evidence_rng g truth in
  {
    model;
    hot;
    ingest_hot;
    cold;
    evidence;
    hash =
      hash_of ~model_digest:(Beta_icm.digest model) ~hot ~cold ~evidence;
  }
