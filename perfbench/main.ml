(* perfbench: the benchmark of `infoflow serve`. See README.md.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload against the real binary and prints the
   end-to-end metrics; --trace 1 drives the same inputs through the
   library in-process with spans at every layer boundary and prints the
   per-layer metrics. The last stdout line is the result object. *)

module Clock = Iflow_obs.Clock
module Model_io = Iflow_io.Model_io

let usage () =
  prerr_endline
    "usage: perfbench --workload hot_read|cold_mh|live_ingest \
     --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload :=
        List.find_opt (fun x -> Live.workload_name x = w) Live.workloads;
      if !workload = None then usage ();
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec > 0.0 -> (w, s, sec, t)
  | _ -> usage ()

let out_dir () =
  let d = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

(* The timed figures of a run, each piece of work scaled by [factor]
   (Speed.factor, or 1 for the measured times): qps, latency p50 and
   p90 (ms), ingest events per second, freshness p50 and p90 (ms), and
   setup_s. Medians over the pieces, not means: once scaled, the pieces
   no longer fall into one group per host speed. *)
let figures (r : Live.result) ~timed ~answered ~factor =
  let scaled t0 dur = factor ~t0 ~t1:(t0 + dur) *. float_of_int dur in
  let lat_ms =
    List.map (fun q -> 1e-6 *. scaled (q.Live.done_ns - q.Live.lat_ns) q.Live.lat_ns) timed
  in
  (* the timed phase's length, summed between consecutive readings *)
  let timed_s =
    let inside =
      List.filter
        (fun (t, _) -> t >= r.Live.timed_start && t <= r.Live.timed_stop)
        (Array.to_list r.Live.speed)
    in
    let edges = (r.Live.timed_start :: List.map fst inside) @ [ r.Live.timed_stop ] in
    let rec sum acc = function
      | a :: (b :: _ as rest) -> sum (acc +. scaled a (b - a)) rest
      | _ -> acc
    in
    1e-9 *. sum 0.0 edges
  in
  let rounds f = List.map (fun rd -> 1e-6 *. scaled rd.Live.posted_ns (f rd)) r.Live.rounds in
  let ingest_ms = rounds (fun rd -> rd.Live.ingest_ns) in
  let fresh_ms = rounds (fun rd -> rd.Live.fresh_ns) in
  [
    ("qps", "1/s", float_of_int answered /. timed_s);
    ("latency_p50_ms", "ms", Report.quantile lat_ms 0.5);
    ("latency_p90_ms", "ms", Report.quantile lat_ms 0.9);
    ( "ingest_events_per_s",
      "1/s",
      float_of_int Inputs.batch_events /. (1e-3 *. Report.quantile ingest_ms 0.5) );
    ("freshness_p50_ms", "ms", Report.quantile fresh_ms 0.5);
    ("freshness_p90_ms", "ms", Report.quantile fresh_ms 0.9);
    ( "setup_s",
      "s",
      Report.quantile (List.map (fun (t0, dur) -> 1e-9 *. scaled t0 dur) r.Live.setups) 0.5 );
  ]

let end_to_end ~workload ~seed ~seconds =
  let out = out_dir () in
  let t0 = Clock.now_ns () in
  let inputs = Live.inputs ~out ~seed workload in
  let model_path = Filename.concat out (Printf.sprintf "model-%d.bicm" seed) in
  Model_io.save_beta_icm model_path inputs.Inputs.model;
  (* the checker replays from the bytes the server loads *)
  let inputs = { inputs with Inputs.model = Model_io.load_beta_icm model_path } in
  let gen_s = Clock.seconds_of_ns (Clock.elapsed_ns t0) in
  let exe = Filename.concat "_build" (Filename.concat "default" "bin/infoflow.exe") in
  let r = Live.run ~exe ~out ~seconds ~inputs ~model_path workload in
  let t1 = Clock.now_ns () in
  let v = Live.check ~inputs r in
  let check_s = Clock.seconds_of_ns (Clock.elapsed_ns t1) in
  let requests = List.length r.Live.reqs in
  let timed = List.filter (fun q -> q.Live.phase = Live.Timed) r.Live.reqs in
  if v.Live.scored = 0 then Check.wrong "no answer was scored";
  let figures = figures r ~timed ~answered:v.Live.timed_answered in
  let scaled = figures ~factor:(Speed.factor r.Live.speed) in
  let measured = figures ~factor:(fun ~t0:_ ~t1:_ -> 1.0) in
  let fig name = List.find (fun (n, _, _) -> n = name) scaled in
  let metrics =
    [
      fig "setup_s";
      fig "qps";
      fig "latency_p50_ms";
      fig "latency_p90_ms";
      Report.metric "answered_share" "share"
        (float_of_int v.Live.answered /. float_of_int requests);
      Report.metric "right_answer_share" "share"
        (float_of_int v.Live.right /. float_of_int v.Live.scored);
      fig "ingest_events_per_s";
      fig "freshness_p50_ms";
      fig "freshness_p90_ms";
      Report.metric "rss_mb" "MB" r.Live.rss_mb;
    ]
  in
  let num (name, _, value) = Printf.sprintf {|"%s": %.6g|} name value in
  Printf.printf
    {|{"workload": "%s", "seed": %d, "input_hash": "%s", "git_rev": "%s", "timed_cpus": "%s", "rss_setup_mb": %.1f, "seconds": %g, "timed_s": %.3f, "gen_s": %.3f, "check_s": %.3f, "probe_us_p50": %.4f, "measured": {%s}, "samples": {"setup": %d, "speed_readings": %d, "latency": %d, "scored": %d, "freshness": %d, "requests": %d, "evidence_posts": %d, "versions_checked": %d}, "misses": {%s}}|}
    (Live.workload_name workload) seed inputs.Inputs.hash (Report.git_rev ())
    r.Live.timed_cpus r.Live.rss_setup_mb seconds
    (Clock.seconds_of_ns (r.Live.timed_stop - r.Live.timed_start))
    gen_s check_s
    (Report.quantile (List.map snd (Array.to_list r.Live.speed)) 0.5)
    (String.concat ", " (List.map num measured))
    (List.length r.Live.setups) (Array.length r.Live.speed) (List.length timed)
    v.Live.scored (List.length r.Live.rounds) requests r.Live.posts
    v.Live.versions_checked
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf {|"%s": %d|} k n) v.Live.errors));
  print_newline ();
  List.iter
    (fun (name, unit, value) -> Printf.printf "  %-22s %14.6g %s\n" name value unit)
    metrics;
  let failed = requests - v.Live.answered + r.Live.posts_failed in
  print_endline
    (Report.result_line ~correct:true ~attempted:(requests + r.Live.posts) ~failed metrics)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a signal unwinds through the handlers that stop the server child *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  Sys.catch_break true;
  let workload, seed, seconds, trace = args () in
  match
    if trace then Traced.run ~workload ~seed ~seconds ~out:(out_dir ())
    else end_to_end ~workload ~seed ~seconds
  with
  | () -> ()
  | exception Check.Wrong msg ->
    Printf.eprintf "perfbench: wrong answer: %s\n%!" msg;
    exit 1
