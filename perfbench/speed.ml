(* The host-speed probe. On a shared VM the speed of a vCPU moves by up
   to 2x, within seconds and over minutes, with the load of other
   tenants on the host. A fixed integer loop barely moves; what moves
   is the kernel and memory path every request and evidence batch
   takes. So the benchmark times a fixed kernel round trip - one byte
   written to a pipe and read back, [trips] times - beside every piece
   of work it times (a window of requests, an evidence round, a cold
   request, a server start), and scales that piece's time to a host on
   which one round trip takes [reference_us]:

     scaled time = measured time * reference_us / probe

   where [probe] is the mean of the readings from just before the
   piece to just after it. A slower program takes longer at every host
   speed, so it still reads slower; a slower host no longer does. The probe runs in
   the benchmark's process while the server waits for its next request,
   on the same CPU as the work it scales. *)

module Clock = Iflow_obs.Clock

let trips = 100
let reference_us = 1.0

let pipe = lazy (Unix.pipe ~cloexec:true ())

(* One reading: microseconds per round trip. *)
let probe () =
  let r, w = Lazy.force pipe in
  let b = Bytes.create 1 in
  let t0 = Clock.now_ns () in
  for _ = 1 to trips do
    ignore (Unix.write w b 0 1);
    ignore (Unix.read r b 0 1)
  done;
  1e-3 *. float_of_int (Clock.elapsed_ns t0) /. float_of_int trips

(* Readings taken during a run, as (clock reading, us per trip), in
   time order once [sorted] has run. *)
type log = { mutable readings : (int * float) list }

let log () = { readings = [] }

let note l =
  let t = Clock.now_ns () in
  let us = probe () in
  l.readings <- (t, us) :: l.readings

let sorted l = Array.of_list (List.rev l.readings)

(* The factor that scales a piece of work spanning [t0, t1] to the
   reference host: reference_us over the mean of the readings from the
   last one at or before [t0] to the first one at or after [t1]. *)
let factor (a : (int * float) array) ~t0 ~t1 =
  let n = Array.length a in
  if n = 0 then invalid_arg "Speed.factor: no readings";
  (* the first index whose reading is later than [t] *)
  let after t =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let m = (!lo + !hi) / 2 in
      if fst a.(m) <= t then lo := m + 1 else hi := m
    done;
    !lo
  in
  let first = max 0 (after t0 - 1) in
  let last = min (n - 1) (after (t1 - 1)) in
  let sum = ref 0.0 in
  for i = first to last do
    sum := !sum +. snd a.(i)
  done;
  reference_us /. (!sum /. float_of_int (last - first + 1))
