(* The answer checker. Every response line is decoded; anything that is
   neither an answer nor a typed error, an exact answer that is not
   bit-equal to the benchmark's own planner value, or an answer carrying
   a (version, digest) pair that was never published aborts the run.
   Answers on small cones are also scored against brute-force
   enumeration for right_answer_share. *)

module Jsonl = Iflow_engine.Jsonl
module Engine = Iflow_engine.Engine
module Wire = Iflow_serve.Wire
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Exact = Iflow_core.Exact
module Online = Iflow_stream.Online
module Cone = Iflow_plan.Cone
module Planner = Iflow_plan.Planner

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* Largest cone the checker enumerates (2^20 pseudo-states). *)
let score_edges = 20

let typed_errors =
  List.map Wire.code_string
    Wire.
      [ Bad_request; Bad_query; Over_capacity; Quota_exceeded; Chains_failed;
        Shutting_down; Deadline_exceeded; Deadline_unmeetable ]

type answer = {
  result : Engine.result;
  version : int option;
}

(* [Ok answer], or [Error code] for a typed error; raises [Wrong] on
   anything else. *)
let decode line =
  match Jsonl.parse line with
  | Error msg -> wrong "malformed response %S: %s" line msg
  | Ok json -> (
    match Jsonl.member "error" json with
    | Some (Jsonl.Str code) when List.mem code typed_errors -> Error code
    | Some _ -> wrong "untyped error response %S" line
    | None -> (
      match Wire.parsed_result json with
      | Ok (result, version) -> Ok { result; version }
      | Error msg -> wrong "undecodable answer %S: %s" line msg))

(* Published model versions, replayed offline from the same evidence
   the server was sent: version k is the model after k runner batches,
   and its digest is the engine digest of its expected ICM. *)
type versions = {
  online : Online.t;
  evidence : string array array;
  mutable icms : Icm.t array;  (** by version id *)
  mutable by_id : string array;  (** digest by version id *)
  digests : (string, int) Hashtbl.t;
}

let versions model evidence =
  let icm = Beta_icm.expected_icm model in
  let d = Engine.icm_digest icm in
  let digests = Hashtbl.create 64 in
  Hashtbl.replace digests d 0;
  { online = Online.create model; evidence; icms = [| icm |]; by_id = [| d |]; digests }

let published v = Array.length v.icms - 1

let publish_next v =
  let k = published v in
  Array.iter
    (fun line ->
      match Online.apply_line v.online line with
      | `Applied -> ()
      | `Quarantined reason -> wrong "benchmark evidence quarantined: %s" reason)
    v.evidence.(k mod Array.length v.evidence);
  let icm = Beta_icm.expected_icm (Online.model v.online) in
  let d = Engine.icm_digest icm in
  Hashtbl.replace v.digests d (k + 1);
  v.icms <- Array.append v.icms [| icm |];
  v.by_id <- Array.append v.by_id [| d |]

let digest_of v k = v.by_id.(k)

(* The version an answer was computed on. An answer may omit its
   version only in the instant between the engine swap and the
   publish hook; its digest must still be a published one. *)
let version_of v a =
  match a.version with
  | Some k ->
    if k < 0 || k > published v || digest_of v k <> a.result.Engine.model_digest
    then
      wrong "answer carries version %d with digest %s, never published" k
        a.result.Engine.model_digest;
    k
  | None -> (
    match Hashtbl.find_opt v.digests a.result.Engine.model_digest with
    | Some k -> k
    | None -> wrong "answer digest %s was never published" a.result.Engine.model_digest)

type score = { mutable scored : int; mutable right : int }

let score () = { scored = 0; right = 0 }

(* Per (pair, version) memo of the benchmark's planner value and the
   brute-force truth, so repeated answers cost a table lookup. *)
type memo = {
  plans : (string * int, (Planner.exact, Planner.reason) result) Hashtbl.t;
  truths : (string * int, float option) Hashtbl.t;
}

let memo () = { plans = Hashtbl.create 1024; truths = Hashtbl.create 1024 }

let plan_at memo v (p : Inputs.pair) k =
  let key = (p.Inputs.line, k) in
  match Hashtbl.find_opt memo.plans key with
  | Some r -> r
  | None ->
    let r =
      if k = 0 then p.Inputs.plan
      else Planner.plan v.icms.(k) ~targets:[ (p.Inputs.src, p.Inputs.dst) ] ~conditions:[]
    in
    Hashtbl.replace memo.plans key r;
    r

(* Brute force over the cone's sub-ICM, or [None] past [score_edges]. *)
let brute_force v (p : Inputs.pair) k =
  let cone =
    match p.Inputs.cone with
    | Some c when k = 0 -> Some c
    | _ -> Cone.extract v.icms.(k) ~src:p.Inputs.src ~dst:p.Inputs.dst
  in
  match cone with
  | Some c when Cone.n_edges c <= score_edges ->
    Some
      (Exact.brute_force_flow (Icm.create c.Cone.sub c.Cone.probs)
         ~src:c.Cone.src ~dst:c.Cone.dst)
  | _ -> None

let truth_at memo v (p : Inputs.pair) k =
  let key = (p.Inputs.line, k) in
  match Hashtbl.find_opt memo.truths key with
  | Some t -> t
  | None ->
    let t = brute_force v p k in
    Hashtbl.replace memo.truths key t;
    t

(* Enumerate the truths a run needs up front, split over two domains:
   the server is stopped by then, and enumeration is most of the
   checker's time. *)
let prefill memo v (keys : (Inputs.pair * int) list) =
  let seen = Hashtbl.create 1024 in
  let keys =
    List.filter
      (fun ((p : Inputs.pair), k) ->
        let key = (p.Inputs.line, k) in
        if Hashtbl.mem seen key || Hashtbl.mem memo.truths key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      keys
  in
  let a = Array.of_list keys in
  let f lo hi = Array.init (hi - lo) (fun i -> let p, k = a.(lo + i) in brute_force v p k) in
  let n = Array.length a in
  let mid = n / 2 in
  let d = Domain.spawn (fun () -> f mid n) in
  let lo = f 0 mid in
  let truths = Array.append lo (Domain.join d) in
  Array.iteri
    (fun i ((p : Inputs.pair), k) -> Hashtbl.replace memo.truths (p.Inputs.line, k) truths.(i))
    a

let cone_edges (p : Inputs.pair) =
  match (p.Inputs.plan, p.Inputs.cone) with
  | Ok e, _ -> e.Planner.cone_edges
  | Error _, Some c -> Cone.n_edges c
  | Error _, None -> max_int

(* Does scoring this answer need the brute-force truth? *)
let needs_truth (p : Inputs.pair) a =
  cone_edges p <= score_edges
  &&
  match a.result.Engine.plan with
  | Engine.Plan_mh _ -> a.result.Engine.estimate <> 0.0
  | Engine.Plan_exact _ -> true

(* Check one decoded answer for pair [p]; when [sc] is given, also
   score it. *)
let answer ?sc memo v (p : Inputs.pair) a =
  let k = version_of v a in
  let r = a.result in
  (match (r.Engine.plan, plan_at memo v p k) with
  | Engine.Plan_exact _, Ok e ->
    if Int64.bits_of_float r.Engine.estimate <> Int64.bits_of_float e.Planner.value
    then
      wrong "exact answer %h for %s differs from the planner's %h" r.Engine.estimate
        p.Inputs.line e.Planner.value
  | Engine.Plan_exact _, Error _ ->
    wrong "exact answer for %s, which the planner refuses" p.Inputs.line
  | Engine.Plan_mh _, Ok _ ->
    wrong "MH answer for %s, which the planner certifies" p.Inputs.line
  | Engine.Plan_mh _, Error _ -> ());
  match sc with
  | None -> ()
  | Some _ when cone_edges p > score_edges -> ()
  | Some sc ->
    let est = r.Engine.estimate in
    let ok =
      match r.Engine.plan with
      | Engine.Plan_mh _ when est = 0.0 ->
        (* the pair is reachable through edges of positive probability,
           so its true flow probability is positive: a zero is wrong
           without enumerating *)
        false
      | plan -> (
        match truth_at memo v p k with
        | None -> wrong "no truth for a %d-edge cone" (cone_edges p)
        | Some t -> (
          match plan with
          | Engine.Plan_exact _ -> Float.abs (est -. t) <= 1e-9
          | Engine.Plan_mh _ -> Float.abs (est -. t) <= 5.0 *. r.Engine.mcse))
    in
    sc.scored <- sc.scored + 1;
    if ok then sc.right <- sc.right + 1
