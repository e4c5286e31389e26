(* In-memory spans for the traced run: name, start, end, parent and
   request id, recorded by the benchmark around its calls into each
   layer and written out when the run ends. *)

module Clock = Iflow_obs.Clock

type span = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (** index of the parent span, -1 for a root *)
  rid : int;  (** request (or evidence batch) id, -1 for none *)
  mutable failed : bool;
}

type t = { mutable spans : span array; mutable n : int }

let create () = { spans = [||]; n = 0 }

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* A span with explicit times, for durations measured by the library
   itself (the engine's plan/sample phases). *)
let add t name ~parent ~rid ~start ~stop =
  ignore (push t { name; start; stop; parent; rid; failed = false })

(* [with_ t name ~parent ~rid f] times [f id], where [id] names this
   span as the parent of spans opened inside it. An exception marks the
   span failed and propagates. *)
let with_ t name ~parent ~rid f =
  let id =
    push t { name; start = Clock.now_ns (); stop = 0; parent; rid; failed = false }
  in
  match f id with
  | x ->
    t.spans.(id).stop <- Clock.now_ns ();
    x
  | exception e ->
    t.spans.(id).stop <- Clock.now_ns ();
    t.spans.(id).failed <- true;
    raise e

let dur s = s.stop - s.start

let iteri t f =
  for i = 0 to t.n - 1 do
    f i t.spans.(i)
  done

let iter t f = iteri t (fun _ s -> f s)

let durations t name =
  let acc = ref [] in
  iter t (fun s -> if s.name = name then acc := float_of_int (dur s) :: !acc);
  !acc

(* Self time: the span's duration minus the time its children cover
   (children of one span never overlap here: the driver is one
   thread). *)
let self_times t =
  let child = Array.make t.n 0 in
  iter t (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + dur s);
  Array.init t.n (fun i -> dur t.spans.(i) - child.(i))

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "name\tstart_ns\tend_ns\tparent\trid\tfailed\n";
      iter t (fun s ->
          Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%b\n" s.name s.start s.stop s.parent
            s.rid s.failed))
