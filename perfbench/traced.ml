(* The traced run: the same seeded inputs driven through the library
   in-process, in the order a request or an evidence batch takes the
   public functions, with an in-process Server for the socket span.
   Spans are recorded here, around the calls; nothing inside lib/ is
   instrumented. Per-layer values pool every span of the run: set-up
   (a warm pass that misses and a hot pass that hits), the timed phase,
   and the evidence rounds. *)

module Clock = Iflow_obs.Clock
module Jsonl = Iflow_engine.Jsonl
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Wire = Iflow_serve.Wire
module Server = Iflow_serve.Server
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Model_io = Iflow_io.Model_io
module Cone = Iflow_plan.Cone
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Drift = Iflow_stream.Drift
module Estimator = Iflow_mcmc.Estimator

(* The engine config `infoflow serve` runs with its default flags,
   derived from Estimator.default_config the way bin/cli_config.ml
   derives it. *)
let serve_config =
  let d = Engine.default_config and m = Estimator.default_config in
  {
    d with
    Engine.burn_in = m.Estimator.burn_in;
    thin = m.Estimator.thin;
    round_samples = min 250 m.Estimator.samples;
    max_samples = m.Estimator.samples * d.Engine.chains;
  }

type miss = {
  exact : bool;
  plan_ns : int;
  sample_ns : int;
  rounds : int;
  samples : int;
  cone_edges : int;
  zero_mcse : bool;
}

type ctx = {
  sp : Spans.t;
  engine : Engine.t;
  server : Server.t;
  sess : Client.session;
  online : Online.t;
  snapshot : Snapshot.t;
  mutable record : bool;
  mutable rid : int;
  mutable misses : miss list;
  mutable timed_queries : int;
  mutable timed_hits : int;
  mutable socket_sent : int;
  mutable socket_failed : int;
  mutable evicted : int list;
  mutable published : int;
}

let span c name ~parent ~rid f =
  if c.record then Spans.with_ c.sp name ~parent ~rid f else f (-1)

let ok_or_fail = function Ok x -> x | Error msg -> failwith msg

(* One request, with spans unless [traced] is false; returns its wall
   time. *)
let request ?(traced = true) c ~timed (p : Inputs.pair) =
  c.rid <- c.rid + 1;
  let rid = c.rid in
  c.record <- traced;
  let t0 = Clock.now_ns () in
  (try
     span c "request" ~parent:(-1) ~rid (fun root ->
         let q =
           span c "serve.decode" ~parent:root ~rid (fun _ ->
               ok_or_fail (Query.of_json (ok_or_fail (Jsonl.parse p.Inputs.line))))
         in
         let ph = Engine.phases () in
         let r =
           span c "engine.query" ~parent:root ~rid (fun id ->
               let start = Clock.now_ns () in
               let r = Engine.query ~phases:ph c.engine q in
               (* the engine's own plan/sample split, as child spans *)
               if c.record && ph.Engine.plan_ns > 0 then
                 Spans.add c.sp "plan.plan" ~parent:id ~rid ~start
                   ~stop:(start + ph.Engine.plan_ns);
               if c.record && ph.Engine.sample_ns > 0 then
                 Spans.add c.sp "mcmc.sample" ~parent:id ~rid
                   ~start:(start + ph.Engine.plan_ns)
                   ~stop:(start + ph.Engine.plan_ns + ph.Engine.sample_ns);
               r)
         in
         if timed then begin
           c.timed_queries <- c.timed_queries + 1;
           if r.Engine.cached then c.timed_hits <- c.timed_hits + 1
         end;
         if not r.Engine.cached then begin
           let cone =
             span c "plan.cone" ~parent:root ~rid (fun _ ->
                 Cone.extract (Engine.icm c.engine) ~src:p.Inputs.src ~dst:p.Inputs.dst)
           in
           c.misses <-
             {
               exact = (match r.Engine.plan with Engine.Plan_exact _ -> true | _ -> false);
               plan_ns = ph.Engine.plan_ns;
               sample_ns = ph.Engine.sample_ns;
               rounds = ph.Engine.rounds;
               samples = r.Engine.total_samples;
               cone_edges = (match cone with Some c -> Cone.n_edges c | None -> 0);
               zero_mcse = r.Engine.estimate = 0.0 && r.Engine.mcse = 0.0;
             }
             :: c.misses
         end;
         ignore
           (span c "serve.encode" ~parent:root ~rid (fun _ ->
                Wire.result_line ~version:(Server.current_version c.server) r));
         c.socket_sent <- c.socket_sent + 1;
         span c "serve.socket" ~parent:root ~rid (fun _ ->
             match Client.ask c.sess p.Inputs.line with
             | Some line -> (
               match Check.decode line with
               | Ok _ -> ()
               | Error code -> failwith code)
             | None -> failwith "lost"))
   with Failure _ | Check.Wrong _ -> c.socket_failed <- c.socket_failed + 1);
  c.record <- true;
  Clock.elapsed_ns t0

(* Tracing overhead, paired: each hot-set pair is asked twice in a row,
   once with spans and once without, the order alternating, and the
   share is the median of the traced/untraced wall ratios minus 1. The
   hot set is cached when this runs, so both asks take the same path,
   the cheapest one: the share bounds the overhead on slower requests
   from above. *)
let overhead_passes = 4

let overhead_probe c (inputs : Inputs.t) =
  let ratios = ref [] in
  for pass = 1 to overhead_passes do
    Array.iteri
      (fun i p ->
        let ask traced = float_of_int (request ~traced c ~timed:false p) in
        let traced_ns, plain_ns =
          if (i + pass) mod 2 = 0 then
            let t = ask true in
            (t, ask false)
          else
            let u = ask false in
            (ask true, u)
        in
        ratios := (traced_ns /. plain_ns) :: !ratios)
      inputs.Inputs.hot
  done;
  Report.quantile !ratios 0.5 -. 1.0

(* One evidence batch in the runner's order - decode, apply, freeze and
   publish, expected ICM, engine swap, publish hook - then the refill
   of the exact-path hot set the swap evicted. *)
let round c ~timed (inputs : Inputs.t) =
  let ev = inputs.Inputs.evidence in
  let batch = ev.(c.published mod Array.length ev) in
  c.published <- c.published + 1;
  let rid = -c.published in
  span c "stream.batch" ~parent:(-1) ~rid (fun root ->
      let events =
        span c "stream.decode" ~parent:root ~rid (fun _ ->
            Array.map (fun l -> ok_or_fail (Event.of_line l)) batch)
      in
      span c "stream.apply" ~parent:root ~rid (fun _ ->
          Array.iter
            (fun e ->
              match Online.apply c.online e with
              | `Applied -> ()
              | `Quarantined reason -> failwith reason)
            events);
      let v =
        span c "stream.publish" ~parent:root ~rid (fun _ ->
            Snapshot.publish c.snapshot (Online.model c.online)
              ~offset:(c.published * Inputs.batch_events))
      in
      let icm =
        span c "stream.expected_icm" ~parent:root ~rid (fun _ ->
            Beta_icm.expected_icm v.Snapshot.model)
      in
      let evicted = span c "stream.swap" ~parent:root ~rid (fun _ -> Engine.swap c.engine icm) in
      c.evicted <- evicted :: c.evicted;
      Server.on_publish c.server v);
  Array.iter (fun p -> ignore (request c ~timed p)) inputs.Inputs.ingest_hot

let us = 1e-3
let ms = 1e-6

let p50 xs = Report.quantile xs 0.5
let mean = function [] -> 0.0 | xs -> Report.mean xs
let share a b = float_of_int a /. float_of_int (max 1 b)

(* One table per workload: each layer's count, self time, wait and
   failures, then each span's percentiles (p99 and max are diagnostics
   only). *)
let print_tables c workload =
  let selfs = Spans.self_times c.sp in
  let layers = Hashtbl.create 16 and names = Hashtbl.create 32 in
  Spans.iteri c.sp (fun i s ->
      let l = Spans.layer s.Spans.name in
      let count, self, wait, failed =
        Option.value (Hashtbl.find_opt layers l) ~default:(0, 0, 0, 0)
      in
      let is_wait = s.Spans.name = "serve.socket" in
      Hashtbl.replace layers l
        ( count + 1,
          (self + if is_wait then 0 else selfs.(i)),
          (wait + if is_wait then Spans.dur s else 0),
          failed + if s.Spans.failed then 1 else 0 );
      Hashtbl.replace names s.Spans.name ());
  Printf.printf "per-layer (%s): %d spans\n" workload c.sp.Spans.n;
  Printf.printf "  %-10s %9s %12s %12s %8s\n" "layer" "count" "self_ms" "wait_ms" "failed";
  List.iter
    (fun (l, (count, self, wait, failed)) ->
      Printf.printf "  %-10s %9d %12.3f %12.3f %8d\n" l count (ms *. float_of_int self)
        (ms *. float_of_int wait) failed)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []));
  Printf.printf "  %-20s %9s %10s %10s %10s %10s\n" "span" "count" "p50_us" "p90_us" "p99_us"
    "max_us";
  List.iter
    (fun name ->
      let d = Spans.durations c.sp name in
      let q x = us *. Report.quantile d x in
      Printf.printf "  %-20s %9d %10.1f %10.1f %10.1f %10.1f\n" name (List.length d) (q 0.5)
        (q 0.9) (q 0.99) (q 1.0))
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) names []))

let run ~workload ~seed ~seconds ~out =
  let inputs = Live.inputs ~out ~seed workload in
  let model_path = Filename.concat out (Printf.sprintf "model-%d.bicm" seed) in
  Model_io.save_beta_icm model_path inputs.Inputs.model;
  let sp = Spans.create () in
  let t_load = Clock.now_ns () in
  let model = Model_io.load_beta_icm model_path in
  let load_ns = Clock.elapsed_ns t_load in
  Spans.add sp "setup.load" ~parent:(-1) ~rid:(-1) ~start:t_load ~stop:(t_load + load_ns);
  let engine = Engine.create ~config:serve_config ~seed:42 (Beta_icm.expected_icm model) in
  let server = Server.create ~engine () in
  Server.start server;
  let c =
    {
      sp;
      engine;
      server;
      sess = Client.session (Server.port server);
      online = Online.create ~drift:Drift.default_config model;
      snapshot = Snapshot.create model;
      record = true;
      rid = 0;
      misses = [];
      timed_queries = 0;
      timed_hits = 0;
      socket_sent = 0;
      socket_failed = 0;
      evicted = [];
      published = 0;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close_session c.sess;
      Server.stop server)
    (fun () ->
      let t_warm = Clock.now_ns () in
      Spans.with_ sp "setup.warm" ~parent:(-1) ~rid:(-1) (fun _ ->
          Array.iter (fun p -> ignore (request c ~timed:false p)) inputs.Inputs.hot);
      let warm_s = Clock.seconds_of_ns (Clock.elapsed_ns t_warm) in
      Array.iter (fun p -> ignore (request c ~timed:false p)) inputs.Inputs.hot;
      let overhead = overhead_probe c inputs in
      let pids = [ Unix.getpid () ] in
      ignore
        (Live.on_one_cpu ~pin:(Live.pin_timed workload) pids (fun () ->
             Live.drive workload inputs ~seconds
               ~ask:(fun p -> ignore (request c ~timed:true p))
               ~round:(fun () -> round c ~timed:true inputs)));
      if workload <> Live.Live_ingest then
        ignore
          (Live.on_one_cpu ~pin:true pids (fun () ->
               for _ = 1 to Live.probe_rounds do
                 round c ~timed:false inputs
               done));
      let name = Live.workload_name workload in
      Spans.write sp (Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" name seed));
      print_tables c name;
      let d = Spans.durations sp in
      let engine_hits =
        (* engine.query spans of cache hits: those without a plan child *)
        let planned = Hashtbl.create 1024 in
        Spans.iter sp (fun s ->
            if s.Spans.name = "plan.plan" then Hashtbl.replace planned s.Spans.parent ());
        let acc = ref [] in
        Spans.iteri sp (fun i s ->
            if s.Spans.name = "engine.query" && not (Hashtbl.mem planned i) then
              acc := float_of_int (Spans.dur s) :: !acc);
        !acc
      in
      let per_batch name = List.map (fun x -> x /. float_of_int Inputs.batch_events) (d name) in
      let mh = List.filter (fun m -> not m.exact) c.misses in
      let f = float_of_int in
      let model_edges = Icm.n_edges (Engine.icm engine) in
      let metrics =
        [
          Report.metric "serve.overhead_p50_us" "us"
            (us *. (p50 (d "serve.socket") -. p50 engine_hits));
          Report.metric "serve.decode_us" "us" (us *. p50 (d "serve.decode"));
          Report.metric "serve.encode_us" "us" (us *. p50 (d "serve.encode"));
          Report.metric "serve.failed_share" "share" (share c.socket_failed c.socket_sent);
          Report.metric "engine.hit_us" "us" (us *. p50 engine_hits);
          Report.metric "engine.cache_hit_share" "share" (share c.timed_hits c.timed_queries);
          Report.metric "engine.evicted_per_swap" "count"
            (mean (List.map float_of_int c.evicted));
          Report.metric "plan.cone_us" "us" (us *. p50 (d "plan.cone"));
          Report.metric "plan.plan_us" "us"
            (us *. p50 (List.map (fun m -> f m.plan_ns) (List.filter (fun m -> m.exact) c.misses)));
          Report.metric "plan.refusal_ms" "ms" (ms *. p50 (List.map (fun m -> f m.plan_ns) mh));
          Report.metric "plan.exact_share" "share"
            (share (List.length c.misses - List.length mh) (List.length c.misses));
          Report.metric "plan.cone_edges_p50" "count"
            (p50 (List.map (fun m -> f m.cone_edges) c.misses));
          Report.metric "mcmc.sample_ms" "ms" (ms *. p50 (List.map (fun m -> f m.sample_ns) mh));
          Report.metric "mcmc.samples_per_query" "count" (mean (List.map (fun m -> f m.samples) mh));
          Report.metric "mcmc.rounds_per_query" "count" (mean (List.map (fun m -> f m.rounds) mh));
          Report.metric "mcmc.useful_edge_share" "share"
            (mean (List.map (fun m -> f m.cone_edges /. f model_edges) mh));
          Report.metric "mcmc.zero_mcse_share" "share"
            (share (List.length (List.filter (fun m -> m.zero_mcse) mh)) (List.length mh));
          Report.metric "stream.decode_us" "us" (us *. p50 (per_batch "stream.decode"));
          Report.metric "stream.apply_us" "us" (us *. p50 (per_batch "stream.apply"));
          Report.metric "stream.publish_ms" "ms" (ms *. p50 (d "stream.publish"));
          Report.metric "stream.expected_icm_ms" "ms" (ms *. p50 (d "stream.expected_icm"));
          Report.metric "stream.swap_ms" "ms" (ms *. p50 (d "stream.swap"));
          Report.metric "setup.load_ms" "ms" (ms *. f load_ns);
          Report.metric "setup.warm_s" "s" warm_s;
          Report.metric "trace_overhead_share" "share" overhead;
        ]
      in
      Printf.printf
        {|{"workload": "%s", "seed": %d, "input_hash": "%s", "git_rev": "%s", "samples": {"spans": %d, "misses": %d, "mh_misses": %d, "engine_hits": %d, "swaps": %d, "overhead_pairs": %d}}|}
        name seed inputs.Inputs.hash (Report.git_rev ())
        sp.Spans.n (List.length c.misses) (List.length mh) (List.length engine_hits)
        (List.length c.evicted) (overhead_passes * Array.length inputs.Inputs.hot);
      print_newline ();
      List.iter
        (fun (name, unit, value) -> Printf.printf "  %-26s %14.6g %s\n" name value unit)
        metrics;
      print_endline
        (Report.result_line ~correct:(c.socket_failed = 0)
           ~attempted:(c.socket_sent + c.published)
           ~failed:c.socket_failed metrics))
