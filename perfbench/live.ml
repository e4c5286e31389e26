(* The end-to-end run: the real `infoflow serve` binary as a child
   process, driven by this process alone - one thread, a closed loop,
   one JSONL session plus one short-lived HTTP connection at a time. *)

module Clock = Iflow_obs.Clock
module Jsonl = Iflow_engine.Jsonl

type workload = Hot_read | Cold_mh | Live_ingest

let workload_name = function
  | Hot_read -> "hot_read"
  | Cold_mh -> "cold_mh"
  | Live_ingest -> "live_ingest"

let workloads = [ Hot_read; Cold_mh; Live_ingest ]

(* Set-up is repeated and its median reported: one spawn is noisy. *)
let setup_reps = 5

(* Evidence rounds after a read workload's timed phase, so every
   workload reports the ingest metrics without mixing writes into its
   reads. *)
let probe_rounds = 64

type phase = Setup | Timed | Probe

(* Runs [f] with every thread of [pids] on one CPU, the first this
   process may use, when [pin]; returns the CPUs it ran on and [f ()].
   Requests and evidence rounds take tens of microseconds to tens of
   milliseconds, and on a shared VM waking an idle second vCPU for each
   one costs more than the request and swings with host load: unpinned,
   hot_read qps read 4K to 15K within minutes on the same code, and
   hot_read's freshness_p90_ms spread 0.32 over 10 seeds where
   live_ingest's, pinned, spread 0.07. So the timed phase of hot_read
   and live_ingest and every workload's evidence rounds are pinned;
   set-up and cold_mh's timed phase keep every CPU, because chains
   sample in parallel. Without taskset [f] runs unpinned. *)
let on_one_cpu ~pin pids f =
  let all = Client.allowed_cpus () in
  let one = Client.first_cpu all in
  if pin && List.for_all (fun pid -> Client.set_cpus pid one) pids then
    Fun.protect
      ~finally:(fun () -> List.iter (fun pid -> ignore (Client.set_cpus pid all)) pids)
      (fun () -> (one, f ()))
  else begin
    if pin then prerr_endline "perfbench: taskset failed; running unpinned";
    (all, f ())
  end

let pin_timed workload = workload <> Cold_mh

let inputs ~out ~seed workload = Inputs.make ~dir:out ~seed ~cold_mh:(workload = Cold_mh)

(* hot_read's requests are scaled to the host speed in windows of this
   length, a probe at each end (see Speed). *)
let window_ns = 100_000_000

(* The timed phase, for both the end-to-end and the traced run: asks
   (or evidence rounds) back to back for [seconds], or until the cold
   population is used up. [tick] runs before the first piece of work, at
   every hot_read window boundary, before every cold_mh request, and
   after the last piece; evidence rounds take their own readings. *)
let drive ?(tick = ignore) workload (inputs : Inputs.t) ~seconds ~ask ~round =
  let stop = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let live () = Clock.now_ns () < stop in
  (match workload with
  | Hot_read ->
    let hot = inputs.Inputs.hot in
    let i = ref 0 and next = ref 0 in
    while live () do
      if Clock.now_ns () >= !next then begin
        tick ();
        next := Clock.now_ns () + window_ns
      end;
      ask hot.(!i mod Array.length hot);
      incr i
    done
  | Cold_mh ->
    let cold = inputs.Inputs.cold in
    let i = ref 0 in
    while !i < Array.length cold && live () do
      tick ();
      ask cold.(!i);
      incr i
    done
  | Live_ingest ->
    while live () do
      round ()
    done);
  tick ()

type req = {
  pair : Inputs.pair;
  phase : phase;
  reply : string option;  (** [None]: the session timed out or closed *)
  lat_ns : int;
  done_ns : int;  (** clock reading when the reply was read *)
}

(* One accepted evidence round, times from sending the POST. *)
type round = {
  posted_ns : int;  (** clock reading when the POST was sent *)
  ingest_ns : int;  (** until /healthz reports the version *)
  fresh_ns : int;  (** until the first answer carrying the version *)
}

type st = {
  speed : Speed.log;
  server : Client.server;
  sess : Client.session;
  mutable reqs : req list;
  mutable posts : int;  (** evidence POSTs sent *)
  mutable posts_failed : int;
  mutable published : int;  (** versions published by accepted POSTs *)
  mutable rounds : round list;
}

let ask st phase (p : Inputs.pair) =
  let t0 = Clock.now_ns () in
  let reply = Client.ask st.sess p.Inputs.line in
  let done_ns = Clock.now_ns () in
  st.reqs <- { pair = p; phase; reply; lat_ns = done_ns - t0; done_ns } :: st.reqs;
  reply

let healthz port =
  match Client.http port ~meth:"GET" ~path:"/healthz" () with
  | _, body -> (
    match Jsonl.parse (String.trim body) with
    | Ok j -> (
      match (Jsonl.member "version" j, Jsonl.member "digest" j) with
      | Some v, Some (Jsonl.Str d) -> (Option.value (Jsonl.to_int v) ~default:(-1), d)
      | _ -> Check.wrong "healthz without version/digest: %S" body)
    | Error _ -> Check.wrong "malformed healthz body %S" body)

let version_of_reply line =
  match Jsonl.parse line with
  | Ok j -> Option.bind (Jsonl.member "version" j) Jsonl.to_int
  | Error _ -> None

(* One evidence round: POST one runner batch, wait until the server
   publishes the version it makes, then ask the exact-path hot set the
   swap just evicted. Freshness runs from sending the POST until the
   first answer that carries the new version. A host-speed reading
   opens the round and another separates the publish from the
   refill. *)
let round st (inputs : Inputs.t) phase =
  let k = st.published + 1 in
  let batch = inputs.Inputs.evidence.(st.published mod Array.length inputs.Inputs.evidence) in
  let body = String.concat "\n" (Array.to_list batch) ^ "\n" in
  Speed.note st.speed;
  let t0 = Clock.now_ns () in
  st.posts <- st.posts + 1;
  let status, _ =
    Client.http st.server.Client.port ~meth:"POST" ~path:"/evidence" ~body ()
  in
  if status <> Some 202 then st.posts_failed <- st.posts_failed + 1
  else begin
    st.published <- k;
    let deadline = Clock.now_s () +. 30.0 in
    let rec wait () =
      let v, _ = healthz st.server.Client.port in
      if v < k then begin
        if Clock.now_s () > deadline then
          Check.wrong "version %d not published 30 s after its evidence" k;
        Unix.sleepf 0.0005;
        wait ()
      end
    in
    wait ();
    let ingest_ns = Clock.elapsed_ns t0 in
    Speed.note st.speed;
    let fresh = ref None in
    Array.iter
      (fun p ->
        match ask st phase p with
        | Some line when !fresh = None && version_of_reply line = Some k ->
          fresh := Some (Clock.elapsed_ns t0)
        | _ -> ())
      inputs.Inputs.ingest_hot;
    match !fresh with
    | Some fresh_ns -> st.rounds <- { posted_ns = t0; ingest_ns; fresh_ns } :: st.rounds
    | None -> Check.wrong "no answer carried version %d after its publish" k
  end

type result = {
  setups : (int * int) list;  (** each start: clock reading, duration (ns) *)
  timed_cpus : string;  (** the CPUs the timed phase ran on *)
  rss_setup_mb : float;  (** the server's VmHWM when set-up ended *)
  timed_start : int;  (** clock readings when the timed phase began *)
  timed_stop : int;  (** ... and ended *)
  reqs : req list;  (** in sending order *)
  posts : int;
  posts_failed : int;
  published : int;
  rounds : round list;  (** accepted evidence rounds, in order *)
  speed : (int * float) array;  (** host-speed readings, in time order *)
  rss_mb : float;
  final_digest : string;
}

let run ~exe ~out ~seconds ~(inputs : Inputs.t) ~model_path workload =
  let log = Filename.concat out "serve.log" in
  let speed = Speed.log () in
  let start () =
    Speed.note speed;
    let t0 = Clock.now_ns () in
    let server = Client.spawn ~exe ~model:model_path ~log in
    match
      let st =
        { speed; server; sess = Client.session server.Client.port; reqs = []; posts = 0;
          posts_failed = 0; published = 0; rounds = [] }
      in
      Array.iter (fun p -> ignore (ask st Setup p)) inputs.Inputs.hot;
      st
    with
    | st ->
      let setup = (t0, Clock.elapsed_ns t0) in
      Speed.note speed;
      (st, setup)
    | exception e ->
      Client.stop server;
      raise e
  in
  let warm = ref [] and setups = ref [] in
  for _ = 2 to setup_reps do
    let st, s = start () in
    Client.close_session st.sess;
    Client.stop st.server;
    warm := st.reqs @ !warm;
    setups := s :: !setups
  done;
  let st, s = start () in
  setups := s :: !setups;
  st.reqs <- st.reqs @ !warm;
  Fun.protect
    ~finally:(fun () ->
      Client.close_session st.sess;
      Client.stop st.server)
    (fun () ->
      let pids = [ st.server.Client.pid; Unix.getpid () ] in
      let rss_setup_mb = Client.vm_hwm_mb st.server in
      let timed_cpus, (t0, t1) =
        on_one_cpu ~pin:(pin_timed workload) pids (fun () ->
            let t0 = Clock.now_ns () in
            drive workload inputs ~seconds
              ~tick:(fun () -> Speed.note speed)
              ~ask:(fun p -> ignore (ask st Timed p))
              ~round:(fun () -> round st inputs Timed);
            (t0, Clock.now_ns ()))
      in
      if workload <> Live_ingest then
        ignore
          (on_one_cpu ~pin:true pids (fun () ->
               for _ = 1 to probe_rounds do
                 round st inputs Probe
               done;
               Speed.note speed));
      let rss_mb = Client.vm_hwm_mb st.server in
      let _, final_digest = healthz st.server.Client.port in
      {
        setups = !setups;
        timed_cpus;
        rss_setup_mb;
        timed_start = t0;
        timed_stop = t1;
        reqs = List.rev st.reqs;
        posts = st.posts;
        posts_failed = st.posts_failed;
        published = st.published;
        rounds = List.rev st.rounds;
        speed = Speed.sorted speed;
        rss_mb;
        final_digest;
      })

(* Check every reply of the run against the offline replay of the
   versions the server published; score the timed phase's answers. *)
type verdict = {
  answered : int;  (** replies that are answers, all phases *)
  timed_answered : int;
  errors : (string * int) list;  (** typed errors and lost replies *)
  scored : int;
  right : int;
  versions_checked : int;
}

let check ~(inputs : Inputs.t) r =
  let v = Check.versions inputs.Inputs.model inputs.Inputs.evidence in
  for _ = 1 to r.published do
    Check.publish_next v
  done;
  if Check.digest_of v (Check.published v) <> r.final_digest then
    Check.wrong "final served digest %s differs from the offline replay's %s"
      r.final_digest (Check.digest_of v (Check.published v));
  let memo = Check.memo () in
  let sc = Check.score () in
  let answered = ref 0 and timed_answered = ref 0 and errors = Hashtbl.create 8 in
  let miss code =
    Hashtbl.replace errors code (1 + Option.value (Hashtbl.find_opt errors code) ~default:0)
  in
  let decoded =
    List.filter_map
      (fun q ->
        match q.reply with
        | None ->
          miss "lost";
          None
        | Some line -> (
          match Check.decode line with
          | Error code ->
            miss code;
            None
          | Ok a -> Some (q, a)))
      r.reqs
  in
  Check.prefill memo v
    (List.filter_map
       (fun (q, a) ->
         if q.phase = Timed && Check.needs_truth q.pair a then
           Some (q.pair, Check.version_of v a)
         else None)
       decoded);
  List.iter
    (fun (q, a) ->
      incr answered;
      if q.phase = Timed then begin
        incr timed_answered;
        Check.answer ~sc memo v q.pair a
      end
      else Check.answer memo v q.pair a)
    decoded;
  {
    answered = !answered;
    timed_answered = !timed_answered;
    errors = Hashtbl.fold (fun k n acc -> (k, n) :: acc) errors [];
    scored = sc.Check.scored;
    right = sc.Check.right;
    versions_checked = Check.published v;
  }
