(* The load generator's side of the wire: an `infoflow serve` child
   process, one JSONL session, and one-shot HTTP requests. Everything
   here runs on the benchmark's single thread. *)

module Sockio = Iflow_serve.Sockio
module Clock = Iflow_obs.Clock

type server = { pid : int; port : int }

let fail fmt = Printf.ksprintf failwith fmt

(* Reads to end of file: /proc files report a size of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* The server prints "... listening on HOST:PORT (...)" once it
   accepts; its output goes to [log] so a full pipe can never stall it.
   [None] until that line has been written out. *)
let port_of_log text =
  let key = "listening on " in
  let k = String.length key in
  let rec find i =
    if i + k > String.length text then None
    else if String.sub text i k <> key then find (i + 1)
    else
      match String.index_from_opt text (i + k) ':' with
      | None -> None
      | Some c -> (
        match String.index_from_opt text c ' ' with
        | Some sp -> int_of_string_opt (String.sub text (c + 1) (sp - c - 1))
        | None -> None)
  in
  find 0

let spawn ~exe ~model ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--model"; model; "--port"; "0"; "--seed"; "42" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = Clock.now_s () +. 60.0 in
  let rec wait () =
    match port_of_log (read_file log) with
    | Some port -> { pid; port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> fail "infoflow serve exited during start-up (see %s)" log);
      if Clock.now_s () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        fail "infoflow serve did not start within 60 s (see %s)" log
      end;
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ()

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now_s () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Clock.now_s () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ()

(* Peak resident set of the server process, in MB. *)
let vm_hwm_mb s =
  let words l =
    List.filter (( <> ) "")
      (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))
  in
  let rec find = function
    | [] -> fail "no VmHWM line for pid %d" s.pid
    | l :: rest -> (
      match words l with
      | "VmHWM:" :: kb :: _ -> float_of_string kb /. 1024.0
      | _ -> find rest)
  in
  find (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" s.pid)))

(* The CPUs this process may run on, as taskset writes them ("0-1"). *)
let allowed_cpus () =
  let field l =
    match String.split_on_char ':' l with
    | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
    | _ -> None
  in
  match List.find_map field (String.split_on_char '\n' (read_file "/proc/self/status")) with
  | Some v -> v
  | None -> fail "no Cpus_allowed_list in /proc/self/status"

let first_cpu cpus =
  List.hd (String.split_on_char '-' (List.hd (String.split_on_char ',' cpus)))

(* Moves every thread of [pid] onto [cpus] with taskset; false when
   taskset is missing or refuses. *)
let set_cpus pid cpus =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-a"; "-c"; "-p"; cpus; string_of_int pid |]
          Unix.stdin null null
      with
      | child -> snd (Unix.waitpid [] child) = Unix.WEXITED 0
      | exception Unix.Unix_error _ -> false)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

type session = { fd : Unix.file_descr; reader : Sockio.reader }

let session port =
  let fd = connect port in
  { fd; reader = Sockio.reader fd }

let close_session s = try Unix.close s.fd with Unix.Unix_error _ -> ()

(* One closed-loop request: the answer line, or [None] when the
   session timed out or closed (a miss). *)
let ask s line =
  Sockio.write_all s.fd (line ^ "\n");
  match Sockio.read_line s.reader with
  | Sockio.Line l -> Some l
  | Sockio.Eof | Sockio.Too_long | Sockio.Timeout -> None

(* One HTTP request on its own connection (the server closes after one
   response): the status code and body. *)
let http port ~meth ~path ?(body = "") () =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Sockio.write_all fd
        (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
           meth path (String.length body) body);
      let r = Sockio.reader fd in
      let status =
        match Sockio.read_line r with
        | Sockio.Line l -> (
          match String.split_on_char ' ' l with
          | _ :: code :: _ -> int_of_string_opt code
          | _ -> None)
        | _ -> None
      in
      let rec skip_headers () =
        match Sockio.read_line r with
        | Sockio.Line "" -> true
        | Sockio.Line _ -> skip_headers ()
        | _ -> false
      in
      let buf = Buffer.create 256 in
      let rec drain () =
        match Sockio.read_line r with
        | Sockio.Line l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n';
          drain ()
        | _ -> ()
      in
      if skip_headers () then drain ();
      (status, Buffer.contents buf))
