(* A two-domain compute probe: how much faster two domains run two
   copies of an integer loop than one domain runs them back to back.
   It prints the ratio, about 2.0 when the host gives this process two
   CPUs and about 1.0 when it gives one.  scripts/ab.sh records it next
   to each benchmark pair, because a shared 2-vCPU host does not always
   deliver its second vCPU.

     _build/default/scripts/vcpu_probe.exe *)

let spin n =
  let rec go i x =
    if i = 0 then x else go (i - 1) (((x * 1103515245) + 12345) land 0x3fffffff)
  in
  go n 1

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let () =
  let loop () = ignore (Sys.opaque_identity (spin 40_000_000)) in
  let one = timed (fun () -> loop (); loop ()) in
  let two =
    timed (fun () ->
        let other = Domain.spawn loop in
        loop ();
        Domain.join other)
  in
  Printf.printf "%.3f\n" (one /. two)
