module Ir = Spf_ir.Ir
module Builder = Spf_ir.Builder
module Memory = Spf_sim.Memory
module Interp = Spf_sim.Interp
module Machine = Spf_sim.Machine

(* Functional correctness of the interpreter (values, control flow, memory,
   floats, intrinsics) and basic timing sanity. *)

let ret_of ?mem ?args f = Helpers.run_ret ?mem ?args f

let straight_line ops =
  let b = Builder.create ~name:"t" ~nparams:2 in
  let v = ops b (Builder.param b 0) (Builder.param b 1) in
  Builder.ret b (Some v);
  Builder.finish b

let test_arith () =
  let check name op x y expect =
    let f = straight_line (fun b p0 p1 -> Builder.binop b op p0 p1) in
    Alcotest.(check int) name expect (ret_of ~args:[| x; y |] f)
  in
  check "add" Ir.Add 17 25 42;
  check "sub" Ir.Sub 17 25 (-8);
  check "mul" Ir.Mul 6 7 42;
  check "sdiv" Ir.Sdiv 45 6 7;
  check "srem" Ir.Srem 45 6 3;
  check "and" Ir.And 12 10 8;
  check "or" Ir.Or 12 10 14;
  check "xor" Ir.Xor 12 10 6;
  check "shl" Ir.Shl 3 4 48;
  check "lshr" Ir.Lshr 48 4 3;
  check "ashr" Ir.Ashr (-16) 2 (-4);
  check "smin" Ir.Smin 5 9 5;
  check "smax" Ir.Smax 5 9 9

let test_cmp_select () =
  let f =
    straight_line (fun b p0 p1 ->
        let c = Builder.cmp b Ir.Slt p0 p1 in
        Builder.select b c (Ir.Imm 111) (Ir.Imm 222))
  in
  Alcotest.(check int) "select true" 111 (ret_of ~args:[| 1; 2 |] f);
  Alcotest.(check int) "select false" 222 (ret_of ~args:[| 2; 1 |] f)

let test_gep () =
  let f =
    straight_line (fun b p0 p1 -> Builder.gep b p0 p1 8)
  in
  Alcotest.(check int) "gep address" (1000 + 24) (ret_of ~args:[| 1000; 3 |] f)

let test_memory_roundtrip () =
  let mem = Memory.create () in
  let base = Memory.alloc mem 64 in
  let b = Builder.create ~name:"t" ~nparams:1 in
  let p = Builder.param b 0 in
  Builder.store b Ir.I32 p (Ir.Imm 0xDEAD);
  Builder.store b Ir.I8 (Builder.gep b p (Ir.Imm 8) 1) (Ir.Imm 0x7F);
  let v1 = Builder.load b Ir.I32 p in
  let v2 = Builder.load b Ir.I8 (Builder.gep b p (Ir.Imm 8) 1) in
  Builder.ret b (Some (Builder.add b v1 v2));
  let f = Builder.finish b in
  Alcotest.(check int) "load/store roundtrip" (0xDEAD + 0x7F)
    (ret_of ~mem ~args:[| base |] f)

let test_i32_zero_extends () =
  let mem = Memory.create () in
  let base = Memory.alloc mem 8 in
  Memory.store mem Ir.I32 base (-1);
  let b = Builder.create ~name:"t" ~nparams:1 in
  let v = Builder.load b Ir.I32 (Builder.param b 0) in
  Builder.ret b (Some v);
  Alcotest.(check int) "i32 -1 loads as 0xFFFFFFFF" 0xFFFFFFFF
    (ret_of ~mem ~args:[| base |] (Builder.finish b))

let test_float_ops () =
  let mem = Memory.create () in
  let base = Memory.alloc_f64_array mem [| 1.5; 2.25 |] in
  let b = Builder.create ~name:"t" ~nparams:1 in
  let p = Builder.param b 0 in
  let x = Builder.load b Ir.F64 p in
  let y = Builder.load b Ir.F64 (Builder.gep b p (Ir.Imm 1) 8) in
  let s = Builder.binop b Ir.Fmul x y in
  let s = Builder.binop b Ir.Fadd s (Ir.Fimm 0.625) in
  Builder.store b Ir.F64 p s;
  Builder.ret b None;
  let f = Builder.finish b in
  ignore (Helpers.run ~mem ~args:[| base |] f);
  Alcotest.(check (float 1e-12)) "float compute through memory" 4.0
    (Memory.load_f64 mem base)

let test_loop_sum () =
  let mem = Memory.create () in
  let base = Memory.alloc_i32_array mem (Array.init 100 (fun i -> i)) in
  Alcotest.(check int) "sum 0..99" 4950
    (ret_of ~mem ~args:[| base |] (Helpers.sum_kernel ~n:100))

let test_counted_loop_zero_trips () =
  let mem = Memory.create () in
  let base = Memory.alloc_i32_array mem [| 7 |] in
  Alcotest.(check int) "zero-trip loop returns 0" 0
    (ret_of ~mem ~args:[| base |] (Helpers.sum_kernel ~n:0))

let test_phi_swap () =
  (* Parallel phi semantics: (x, y) <- (y, x) each iteration. *)
  let b = Builder.create ~name:"swap" ~nparams:0 in
  let head = Builder.new_block b "head" in
  let body = Builder.new_block b "body" in
  let exit = Builder.new_block b "exit" in
  let entry = Builder.current_block b in
  Builder.br b head;
  Builder.set_block b head;
  let i = Builder.phi b [ (entry, Ir.Imm 0) ] in
  let x = Builder.phi b [ (entry, Ir.Imm 1) ] in
  let y = Builder.phi b [ (entry, Ir.Imm 2) ] in
  let c = Builder.cmp b Ir.Slt i (Ir.Imm 3) in
  Builder.cbr b c body exit;
  Builder.set_block b body;
  let i' = Builder.add b i (Ir.Imm 1) in
  Builder.br b head;
  Builder.add_incoming b i ~pred:body i';
  Builder.add_incoming b x ~pred:body y;
  Builder.add_incoming b y ~pred:body x;
  Builder.set_block b exit;
  (* After 3 swaps: x = 2, y = 1; return x*10 + y. *)
  let r = Builder.add b (Builder.mul b x (Ir.Imm 10)) y in
  Builder.ret b (Some r);
  Alcotest.(check int) "phis copy in parallel" 21
    (ret_of (Builder.finish b))

let test_intrinsic_call () =
  let b = Builder.create ~name:"t" ~nparams:1 in
  let v = Builder.call b ~pure:true "triple" [ Builder.param b 0 ] in
  Builder.ret b (Some v);
  let f = Builder.finish b in
  let interp =
    Interp.create ~machine:Machine.haswell ~mem:(Memory.create ()) ~args:[| 14 |] f
  in
  Interp.register_intrinsic interp "triple" (fun args -> 3 * args.(0));
  Interp.run interp;
  Alcotest.(check (option int)) "intrinsic result" (Some 42) (Interp.retval interp)

let test_alloc_instr () =
  let b = Builder.create ~name:"t" ~nparams:0 in
  let base = Builder.alloc b (Ir.Imm 128) in
  Builder.store b Ir.I64 base (Ir.Imm 99);
  let v = Builder.load b Ir.I64 base in
  Builder.ret b (Some v);
  Alcotest.(check int) "alloc + store + load" 99 (ret_of (Builder.finish b))

let test_prefetch_is_semantically_inert () =
  let mem = Memory.create () in
  let base = Memory.alloc_i32_array mem (Array.init 10 (fun i -> i)) in
  let b = Builder.create ~name:"t" ~nparams:1 in
  let p = Builder.param b 0 in
  (* Prefetch a wild (but non-negative) address: must not fault and must
     not change any value. *)
  Builder.prefetch b (Ir.Imm 0x7FFFFFFF);
  Builder.prefetch b (Builder.gep b p (Ir.Imm 3) 4);
  let v = Builder.load b Ir.I32 (Builder.gep b p (Ir.Imm 3) 4) in
  Builder.ret b (Some v);
  Alcotest.(check int) "value unchanged by prefetches" 3
    (ret_of ~mem ~args:[| base |] (Builder.finish b))

let test_oob_load_faults () =
  let mem = Memory.create () in
  let b = Builder.create ~name:"t" ~nparams:0 in
  let v = Builder.load b Ir.I64 (Ir.Imm max_int) in
  Builder.ret b (Some v);
  let f = Builder.finish b in
  match Helpers.run ~mem f with
  | _ -> Alcotest.fail "out-of-range load did not trap"
  | exception Interp.Trap { addr; is_store; _ } ->
      Alcotest.(check int) "trap records the faulting address" max_int addr;
      Alcotest.(check bool) "trap is a load" false is_store

let test_oob_store_faults () =
  let mem = Memory.create () in
  let base = Memory.alloc mem 16 in
  let b = Builder.create ~name:"t" ~nparams:1 in
  (* One byte past the break: partially-mapped accesses must fault too. *)
  let addr = Builder.gep b (Builder.param b 0) (Ir.Imm 9) 1 in
  Builder.store b Ir.I64 addr (Ir.Imm 1);
  Builder.ret b None;
  let f = Builder.finish b in
  match Helpers.run ~mem ~args:[| base |] f with
  | _ -> Alcotest.fail "straddling store did not trap"
  | exception Interp.Trap { is_store; width; _ } ->
      Alcotest.(check bool) "trap is a store" true is_store;
      Alcotest.(check int) "trap records width" 8 width

let test_oob_prefetch_dropped_not_faulting () =
  (* Prefetches to wild addresses — negative, huge, just past the break —
     are dropped, counted, and leave execution unperturbed. *)
  let mem = Memory.create () in
  let base = Memory.alloc_i32_array mem [| 5; 6; 7 |] in
  let b = Builder.create ~name:"t" ~nparams:1 in
  let p = Builder.param b 0 in
  Builder.prefetch b (Ir.Imm (-64));
  Builder.prefetch b (Ir.Imm max_int);
  Builder.prefetch b (Builder.gep b p (Ir.Imm (1 lsl 30)) 4);
  Builder.prefetch b (Builder.gep b p (Ir.Imm 1) 4);
  let v = Builder.load b Ir.I32 (Builder.gep b p (Ir.Imm 2) 4) in
  Builder.ret b (Some v);
  let f = Builder.finish b in
  let retval, stats = Helpers.run ~mem ~args:[| base |] f in
  Alcotest.(check (option int)) "execution unperturbed" (Some 7) retval;
  Alcotest.(check int) "three wild prefetches dropped" 3
    stats.Spf_sim.Stats.dropped_prefetches;
  (* Only the mapped prefetch reaches the memory system. *)
  Alcotest.(check int) "the mapped prefetch still issued" 1
    stats.Spf_sim.Stats.sw_prefetches

let test_fuel_exhausted_is_distinct () =
  (* An infinite loop must raise Fuel_exhausted, not a bare Failure. *)
  let b = Builder.create ~name:"spin" ~nparams:0 in
  let head = Builder.new_block b "head" in
  Builder.br b head;
  Builder.set_block b head;
  Builder.br b head;
  let f = Builder.finish b in
  let interp =
    Interp.create ~machine:Machine.haswell ~mem:(Memory.create ()) ~args:[||] f
  in
  match Interp.run ~fuel:100 interp with
  | () -> Alcotest.fail "infinite loop terminated"
  | exception Interp.Fuel_exhausted -> ()

let test_cycles_monotone_with_work () =
  let mem1 = Memory.create () in
  let b1 = Memory.alloc_i32_array mem1 (Array.make 10 1) in
  let _, st_small = Helpers.run ~mem:mem1 ~args:[| b1 |] (Helpers.sum_kernel ~n:10) in
  let mem2 = Memory.create () in
  let b2 = Memory.alloc_i32_array mem2 (Array.make 1000 1) in
  let _, st_big = Helpers.run ~mem:mem2 ~args:[| b2 |] (Helpers.sum_kernel ~n:1000) in
  Alcotest.(check bool) "more work, more cycles" true
    (st_big.Spf_sim.Stats.cycles > st_small.Spf_sim.Stats.cycles);
  Alcotest.(check bool) "instructions counted" true
    (st_big.Spf_sim.Stats.instructions > st_small.Spf_sim.Stats.instructions)

let test_inorder_slower_than_ooo_on_misses () =
  (* The same miss-heavy kernel must cost more cycles on the in-order core
     model than the out-of-order one. *)
  let build () =
    let mem = Memory.create () in
    let n = 4096 in
    let rng = Spf_workloads.Rng.create ~seed:1 in
    let a =
      Memory.alloc_i32_array mem
        (Array.init n (fun _ -> Spf_workloads.Rng.int rng (1 lsl 20)))
    in
    let tgt = Memory.alloc mem (4 * (1 lsl 20)) in
    (mem, [| a; tgt |])
  in
  let cycles machine =
    let mem, args = build () in
    let _, st = Helpers.run ~machine ~mem ~args (Helpers.is_like_kernel ~n:4096) in
    st.Spf_sim.Stats.cycles
  in
  Alcotest.(check bool) "A53 (in-order) slower than Haswell (OoO)" true
    (cycles Machine.a53 > cycles Machine.haswell)

let test_memory_tiny_initial () =
  let mem = Memory.create ~initial:0 () in
  Alcotest.(check bool) "first page mapped" true (Memory.in_bounds mem ~addr:4088 ~width:8);
  Alcotest.(check int) "load 0 at address 0" 0 (Memory.load mem Ir.I64 0);
  Alcotest.(check int) "first page backed" 0 (Memory.unsafe_load mem Ir.I64 4088);
  let a = Memory.alloc mem 16 in
  Memory.store mem Ir.I64 a 0x5EED;
  let big = 1 lsl 17 in
  let b = Memory.alloc mem big in
  Memory.store mem Ir.I64 (b + big - 8) 77;
  Alcotest.(check bool) "grew past 64 KiB" true (Memory.size mem > 1 lsl 16);
  Alcotest.(check int) "earlier contents intact" 0x5EED (Memory.load mem Ir.I64 a);
  Alcotest.(check int) "last word" 77 (Memory.load mem Ir.I64 (b + big - 8))

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "cmp/select" `Quick test_cmp_select;
    Alcotest.test_case "gep" `Quick test_gep;
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "memory backs the first page at any initial size" `Quick
      test_memory_tiny_initial;
    Alcotest.test_case "i32 zero-extension" `Quick test_i32_zero_extends;
    Alcotest.test_case "float ops" `Quick test_float_ops;
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "zero-trip loop" `Quick test_counted_loop_zero_trips;
    Alcotest.test_case "phi parallel copy" `Quick test_phi_swap;
    Alcotest.test_case "intrinsic call" `Quick test_intrinsic_call;
    Alcotest.test_case "alloc instruction" `Quick test_alloc_instr;
    Alcotest.test_case "prefetch is inert" `Quick test_prefetch_is_semantically_inert;
    Alcotest.test_case "out-of-bounds load faults" `Quick test_oob_load_faults;
    Alcotest.test_case "out-of-bounds store faults" `Quick test_oob_store_faults;
    Alcotest.test_case "out-of-bounds prefetch dropped" `Quick
      test_oob_prefetch_dropped_not_faulting;
    Alcotest.test_case "fuel exhaustion is distinct" `Quick
      test_fuel_exhausted_is_distinct;
    Alcotest.test_case "cycles monotone" `Quick test_cycles_monotone_with_work;
    Alcotest.test_case "in-order slower on misses" `Quick
      test_inorder_slower_than_ooo_on_misses;
  ]
