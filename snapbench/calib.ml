(* The host's speed, for normalizing wall-clock metrics.

   The development host runs identical work at speeds that drift by more
   than 2x over minutes, which no choice of statistic within one run can
   remove.  The drift moves this fixed kernel and the simulator together
   (over eight rack runs in a row the simulator's rate climbed from 1,160
   to 2,521 ops/s, while rate x kernel time stayed within 254 to 296), so
   a wall-clock time divided by [factor] reads as the time the host would
   have taken at its reference speed.

   The kernel is self-contained: a binary heap of closures, a hash table
   and short-lived allocation, the simulator's kind of work, written
   here so that no change to the program can move it.  It runs in a
   fresh process ([measure]), so the benchmark's own heap, whose size
   the program under test decides, cannot move it either. *)

(* Kernel time of the development host (2 vCPUs, Intel Xeon at 2.1 GHz)
   in a fast regime, rounded: [factor] is about 1 there. *)
let reference_s = 0.1

let heap_slots = 65536

let kernel () =
  let t0 = Unix.gettimeofday () in
  let tbl = Hashtbl.create 4096 in
  let heap = Array.make heap_slots (0, fun () -> ()) in
  let n = ref 0 in
  let x = ref 12345 in
  let acc = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  for i = 0 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land 0x3FFFF in
    (match Hashtbl.find_opt tbl k with
    | Some (a, l) -> acc := !acc + a + List.length l
    | None -> Hashtbl.replace tbl k (i, [ i ]));
    if !n < heap_slots && i land 1 = 0 then begin
      (* push *)
      let j = ref !n in
      incr n;
      heap.(!j) <- (!x land 0xFFFF, fun () -> acc := !acc + i);
      while !j > 0 && fst heap.((!j - 1) / 2) > fst heap.(!j) do
        swap !j ((!j - 1) / 2);
        j := (!j - 1) / 2
      done
    end
    else if !n > 0 then begin
      (* pop and run the earliest *)
      (snd heap.(0)) ();
      decr n;
      heap.(0) <- heap.(!n);
      let j = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !j) + 1 and r = (2 * !j) + 2 in
        let m = ref !j in
        if l < !n && fst heap.(l) < fst heap.(!m) then m := l;
        if r < !n && fst heap.(r) < fst heap.(!m) then m := r;
        if !m = !j then sifting := false
        else begin
          swap !m !j;
          j := !m
        end
      done
    end
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* Entry point of the child: the first run grows the heap for the
   kernel's table, the second is timed. *)
let child () =
  ignore (kernel ());
  Printf.printf "%.17g\n%!" (kernel ())

let child_flag = "--calibrate"

(* One kernel timing, in a fresh process running this executable. *)
let measure () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; child_flag |] in
  let line = input_line ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string line
  | _ -> failwith "calibration child failed"

(* How much slower than its reference speed the host ran, from kernel
   timings taken around the measured work: their median over the
   reference. *)
let factor timings =
  let a = Array.of_list timings in
  Array.sort compare a;
  let n = Array.length a in
  let med = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
  med /. reference_s
