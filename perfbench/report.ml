(* Shared result formatting. *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Set by run.sh; a checkout without git history reports "unknown". *)
let git_rev () = Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown"

let metric name unit value = (name, unit, value)

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, value) ->
           Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value unit)
         metrics)
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed m

