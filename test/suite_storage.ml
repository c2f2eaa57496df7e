(* Register files, memory planes, caches, shift/delay units. *)

open Nsc_arch
open Util

let register_file_tests =
  [
    case "a depth-3 queue returns values three pushes late" (fun () ->
        let q = Register_file.make_queue 3 in
        check_float "prime 1" 0.0 (Register_file.push q 10.0);
        check_float "prime 2" 0.0 (Register_file.push q 20.0);
        check_float "prime 3" 0.0 (Register_file.push q 30.0);
        check_float "first out" 10.0 (Register_file.push q 40.0);
        check_float "second out" 20.0 (Register_file.push q 50.0));
    case "a depth-0 queue is the identity" (fun () ->
        let q = Register_file.make_queue 0 in
        check_float "id" 7.5 (Register_file.push q 7.5));
    case "reset re-primes the queue" (fun () ->
        let q = Register_file.make_queue 2 in
        ignore (Register_file.push q 1.0);
        ignore (Register_file.push q 2.0);
        Register_file.reset q;
        check_float "primed" 0.0 (Register_file.push q 3.0));
    case "usage validation accepts a sane configuration" (fun () ->
        let u = { Register_file.constants = [ (0, 1.5) ]; delay_a = 4; delay_b = 0 } in
        check_int "ok" 0 (List.length (Register_file.validate params u)));
    case "usage validation rejects over-deep queues" (fun () ->
        let u =
          { Register_file.constants = []; delay_a = params.Params.rf_max_delay + 1; delay_b = 0 }
        in
        check_bool "flagged" true (Register_file.validate params u <> []));
    case "usage validation rejects duplicate constant registers" (fun () ->
        let u = { Register_file.constants = [ (0, 1.0); (0, 2.0) ]; delay_a = 0; delay_b = 0 } in
        check_bool "flagged" true (Register_file.validate params u <> []));
    case "usage validation rejects register-file overflow" (fun () ->
        let u =
          {
            Register_file.constants = [];
            delay_a = params.Params.rf_max_delay;
            delay_b = params.Params.rf_max_delay;
          }
        in
        (* 96 + 96 > 128 registers *)
        check_bool "flagged" true (Register_file.validate params u <> []));
  ]

let memory_tests =
  [
    case "reads of untouched words return zero" (fun () ->
        let st = Memory.make_store 1024 in
        check_float "zero" 0.0 (Memory.read st 123));
    case "writes read back" (fun () ->
        let st = Memory.make_store 1024 in
        Memory.write st 100 3.25;
        check_float "value" 3.25 (Memory.read st 100));
    case "sparse paging touches only written pages" (fun () ->
        let st = Memory.make_store (1 lsl 24) in
        Memory.write st 0 1.0;
        Memory.write st ((1 lsl 24) - 1) 2.0;
        check_int "pages" 2 (Memory.touched_pages st));
    case "out-of-plane addresses are rejected" (fun () ->
        let st = Memory.make_store 64 in
        Alcotest.check_raises "read" (Invalid_argument "Memory: address 64 outside plane of 64 words")
          (fun () -> ignore (Memory.read st 64)));
    case "strided extents handle negative strides" (fun () ->
        let e = Memory.strided_extent ~plane:0 ~base:100 ~stride:(-2) ~count:5 in
        check_int "lo" 92 e.Memory.lo;
        check_int "hi" 101 e.Memory.hi);
    case "extent overlap detection" (fun () ->
        let a = { Memory.plane = 0; lo = 0; hi = 10 } in
        let b = { Memory.plane = 0; lo = 9; hi = 20 } in
        let c = { Memory.plane = 0; lo = 10; hi = 20 } in
        let d = { Memory.plane = 1; lo = 0; hi = 10 } in
        check_bool "overlap" true (Memory.extents_overlap a b);
        check_bool "touching is disjoint" false (Memory.extents_overlap a c);
        check_bool "different planes" false (Memory.extents_overlap a d));
    case "extent validation flags bad planes and ranges" (fun () ->
        check_bool "bad plane" true
          (Memory.validate_extent params { Memory.plane = 99; lo = 0; hi = 1 } <> []);
        check_bool "beyond end" true
          (Memory.validate_extent params
             { Memory.plane = 0; lo = 0; hi = params.Params.memory_plane_words + 1 }
          <> []));
    case "bulk strided writes read back word by word" (fun () ->
        (* a small page size forces page crossings inside the span *)
        let st = Memory.make_store ~page_words:16 1024 in
        let xs = Array.init 40 (fun i -> float_of_int (i + 1)) in
        Memory.write_strided st ~base:3 ~stride:1 xs;
        Array.iteri (fun i v -> check_float "unit stride" v (Memory.read st (3 + i))) xs;
        Memory.write_strided st ~base:100 ~stride:7 xs;
        Array.iteri (fun i v -> check_float "stride 7" v (Memory.read st (100 + (7 * i)))) xs);
    case "bulk strided reads match word-by-word reads" (fun () ->
        let st = Memory.make_store ~page_words:16 1024 in
        for a = 0 to 299 do
          Memory.write st a (float_of_int (a * a))
        done;
        let direct ~base ~stride ~count =
          Array.init count (fun i -> Memory.read st (base + (i * stride)))
        in
        check_bool "unit stride" true
          (Memory.read_strided st ~base:5 ~stride:1 ~count:100
          = direct ~base:5 ~stride:1 ~count:100);
        check_bool "page-crossing stride" true
          (Memory.read_strided st ~base:2 ~stride:17 ~count:17
          = direct ~base:2 ~stride:17 ~count:17);
        check_bool "untouched tail is zero" true
          (Memory.read_strided st ~base:400 ~stride:3 ~count:8 = Array.make 8 0.0));
    case "negative strides round-trip through the bulk path" (fun () ->
        let st = Memory.make_store ~page_words:16 256 in
        let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
        Memory.write_strided st ~base:100 ~stride:(-9) xs;
        Array.iteri (fun i v -> check_float "word" v (Memory.read st (100 - (9 * i)))) xs;
        check_bool "read back" true
          (Memory.read_strided st ~base:100 ~stride:(-9) ~count:5 = xs));
    case "strided accesses outside the plane are rejected" (fun () ->
        let st = Memory.make_store 64 in
        Alcotest.check_raises "read past end"
          (Invalid_argument "Memory: address 64 outside plane of 64 words") (fun () ->
            ignore (Memory.read_strided st ~base:60 ~stride:1 ~count:5));
        Alcotest.check_raises "write before start"
          (Invalid_argument "Memory: address -2 outside plane of 64 words") (fun () ->
            Memory.write_strided st ~base:2 ~stride:(-2) [| 1.0; 2.0; 3.0 |]));
    case "touched_words is the resident page footprint" (fun () ->
        let st = Memory.make_store ~page_words:32 1024 in
        check_int "empty" 0 (Memory.touched_words st);
        Memory.write st 0 1.0;
        Memory.write st 5 2.0;
        check_int "one page" 32 (Memory.touched_words st);
        Memory.write st 1000 3.0;
        check_int "two pages" 64 (Memory.touched_words st);
        check_int "consistent with touched_pages" (Memory.touched_pages st * 32)
          (Memory.touched_words st));
  ]

let cache_tests =
  [
    case "pipeline and DMA sides address different buffers" (fun () ->
        let c = Cache.make params 0 in
        Cache.write_pipeline c 5 1.0;
        Cache.write_dma c 5 2.0;
        check_float "pipeline" 1.0 (Cache.read_pipeline c 5);
        check_float "dma" 2.0 (Cache.read_dma c 5));
    case "swap exchanges the buffers" (fun () ->
        let c = Cache.make params 1 in
        Cache.write_dma c 7 42.0;
        Cache.swap c;
        check_float "staged data visible" 42.0 (Cache.read_pipeline c 7));
    case "clear resets both buffers and orientation" (fun () ->
        let c = Cache.make params 2 in
        Cache.write_pipeline c 0 1.0;
        Cache.swap c;
        Cache.clear c;
        check_float "cleared" 0.0 (Cache.read_pipeline c 0));
    case "bad cache ids are rejected" (fun () ->
        Alcotest.check_raises "make" (Invalid_argument "Cache.make: bad cache id") (fun () ->
            ignore (Cache.make params 99)));
    case "an untouched cache reads the priming zero on both sides" (fun () ->
        let c = Cache.make params 3 in
        let last = params.Params.cache_words - 1 in
        check_float "pipeline" 0.0 (Cache.read_pipeline c last);
        check_float "dma" 0.0 (Cache.read_dma c 0);
        check_bool "strided" true
          (Cache.read_pipeline_strided c ~base:1 ~stride:3 ~count:5 = Array.make 5 0.0);
        let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 8 in
        Bigarray.Array1.fill v Float.nan;
        Cache.read_pipeline_strided_into c ~base:2 ~stride:2 ~count:4 v ~pos:3;
        check_bool "strided into" true
          (List.for_all
             (fun i -> Float.is_nan v.{i} = (i < 3 || i >= 7))
             (List.init 8 Fun.id)
          && v.{3} = 0.0 && v.{6} = 0.0);
        (* writing one side leaves the other untouched *)
        Cache.write_dma c 4 9.0;
        check_float "pipeline still primed" 0.0 (Cache.read_pipeline c 4);
        check_float "dma written" 9.0 (Cache.read_dma c 4);
        Alcotest.check_raises "bounds still checked"
          (Invalid_argument
             (Printf.sprintf "Cache 3: address %d outside buffer of %d words" (last + 1)
                (last + 1)))
          (fun () -> ignore (Cache.read_pipeline c (last + 1))));
    case "staging hits and misses are counted on lazily allocated bitmaps" (fun () ->
        let module Metrics = Nsc_metrics.Metrics in
        let ctx = Metrics.create ~label:"cache" () in
        Metrics.enable ctx;
        let value name = Metrics.value ctx (Option.get (Metrics.find_counter name)) in
        let c = Cache.make params 4 in
        Metrics.with_ctx ctx (fun () ->
            ignore (Cache.read_pipeline c 0);
            Cache.write_dma c 1 2.0;
            Cache.swap c;
            ignore (Cache.read_pipeline c 1);
            ignore (Cache.read_pipeline_strided c ~base:0 ~stride:1 ~count:3));
        check_int "hits" 2 (value "cache.hits");
        check_int "misses" 3 (value "cache.misses"));
    case "snapshot and restore round-trip untouched and touched caches" (fun () ->
        let c = Cache.make params 5 in
        let untouched = Cache.snapshot c in
        Cache.write_pipeline c 10 1.5;
        Cache.write_dma c 11 2.5;
        let touched = Cache.snapshot c in
        Cache.swap c;
        Cache.write_pipeline c 11 (-1.0);
        Cache.restore c touched;
        check_float "pipeline restored" 1.5 (Cache.read_pipeline c 10);
        check_float "dma restored" 2.5 (Cache.read_dma c 11);
        Cache.restore c untouched;
        check_float "untouched pipeline" 0.0 (Cache.read_pipeline c 10);
        check_float "untouched dma" 0.0 (Cache.read_dma c 11);
        (* a restore copies: writing after it leaves the snapshot intact *)
        Cache.write_pipeline c 10 7.0;
        Cache.restore c touched;
        check_float "snapshot unchanged" 1.5 (Cache.read_pipeline c 10);
        Cache.clear c;
        check_float "cleared" 0.0 (Cache.read_pipeline c 10));
    case "restore rejects a snapshot of a different cache size" (fun () ->
        let small = { params with Params.cache_words = 64 } in
        let msg = "Cache.restore: snapshot geometry does not match cache" in
        Alcotest.check_raises "untouched" (Invalid_argument msg) (fun () ->
            Cache.restore (Cache.make params 0) (Cache.snapshot (Cache.make small 0)));
        let c = Cache.make small 0 in
        Cache.write_pipeline c 3 1.0;
        Alcotest.check_raises "touched" (Invalid_argument msg) (fun () ->
            Cache.restore (Cache.make params 0) (Cache.snapshot c)));
  ]

let shift_delay_tests =
  [
    case "a delay unit shifts its stream" (fun () ->
        let sd = Shift_delay.make params 0 (Shift_delay.Delay 2) in
        check_float "0" 0.0 (Shift_delay.step sd 1.0);
        check_float "0" 0.0 (Shift_delay.step sd 2.0);
        check_float "first" 1.0 (Shift_delay.step sd 3.0));
    case "validation bounds the delay depth" (fun () ->
        check_bool "too deep" true
          (Shift_delay.validate params (Shift_delay.Delay (params.Params.rf_max_delay + 1))
          <> []);
        check_bool "negative" true
          (Shift_delay.validate params (Shift_delay.Delay (-1)) <> []));
    case "validation bounds the shift offset" (fun () ->
        check_bool "ok" true (Shift_delay.validate params (Shift_delay.Shift 4) = []);
        check_bool "too far" true
          (Shift_delay.validate params (Shift_delay.Shift (params.Params.rf_max_delay + 1))
          <> []));
    case "unit ids are bounded by the machine" (fun () ->
        Alcotest.check_raises "make" (Invalid_argument "Shift_delay.make: bad id") (fun () ->
            ignore (Shift_delay.make params 2 (Shift_delay.Delay 1))));
  ]

let suite =
  [
    ("arch:register-file", register_file_tests);
    ("arch:memory", memory_tests);
    ("arch:cache", cache_tests);
    ("arch:shift-delay", shift_delay_tests);
  ]

(* appended: edge cases of the bulk strided paths the fused-kernel stage
   gathers and flushes through — empty transfers, negative strides ending
   at word zero, and spans straddling a page boundary *)
let strided_edge_tests =
  [
    case "count-zero strided reads and writes are no-ops" (fun () ->
        let st = Memory.make_store ~page_words:16 256 in
        check_bool "empty read" true
          (Memory.read_strided st ~base:250 ~stride:9 ~count:0 = [||]);
        Memory.write_strided st ~base:250 ~stride:9 [||];
        check_int "no page materialised" 0 (Memory.touched_pages st);
        let e = Memory.strided_extent ~plane:0 ~base:250 ~stride:9 ~count:0 in
        check_int "empty extent lo" 250 e.Memory.lo;
        check_int "empty extent hi" 250 e.Memory.hi);
    case "negative stride down to word zero round-trips" (fun () ->
        let st = Memory.make_store ~page_words:16 64 in
        let xs = [| 9.0; 8.0; 7.0; 6.0 |] in
        Memory.write_strided st ~base:48 ~stride:(-16) xs;
        check_bool "read back" true
          (Memory.read_strided st ~base:48 ~stride:(-16) ~count:4 = xs);
        check_float "landed at word zero" 6.0 (Memory.read st 0));
    case "a unit-stride span straddling a page boundary stays contiguous"
      (fun () ->
        let st = Memory.make_store ~page_words:16 64 in
        let xs = Array.init 10 (fun i -> float_of_int (100 + i)) in
        (* words 11..20 cross the page 0 / page 1 edge at word 16 *)
        Memory.write_strided st ~base:11 ~stride:1 xs;
        check_int "two pages" 2 (Memory.touched_pages st);
        Array.iteri (fun i v -> check_float "word" v (Memory.read st (11 + i))) xs;
        check_bool "bulk read" true
          (Memory.read_strided st ~base:11 ~stride:1 ~count:10 = xs);
        let e = Memory.strided_extent ~plane:0 ~base:11 ~stride:1 ~count:10 in
        check_int "lo" 11 e.Memory.lo;
        check_int "hi" 21 e.Memory.hi);
  ]

let suite = suite @ [ ("arch:strided-edges", strided_edge_tests) ]

(* appended: store-to-store copies, the on-node halo replication path *)
let copy_words_tests =
  let ramp st ~base n =
    Memory.write_strided st ~base ~stride:1 (Array.init n (fun i -> float_of_int (base + i)))
  in
  [
    case "copies across page crossings at different source and destination offsets"
      (fun () ->
        let src = Memory.make_store ~page_words:16 128 in
        let dst = Memory.make_store ~page_words:8 128 in
        ramp src ~base:0 128;
        (* source spans pages 0..3 from offset 5; the destination, with a
           different page size, starts at offset 3 of its page 1 *)
        Memory.copy_words ~src ~src_base:5 ~dst ~dst_base:11 ~count:50;
        check_bool "copied" true
          (Memory.read_strided dst ~base:11 ~stride:1 ~count:50
          = Memory.read_strided src ~base:5 ~stride:1 ~count:50);
        check_float "word before untouched" 0.0 (Memory.read dst 10);
        check_float "word after untouched" 0.0 (Memory.read dst 61));
    case "an untouched source page copies zeros and materialises the destination"
      (fun () ->
        let src = Memory.make_store ~page_words:16 64 in
        let dst = Memory.make_store ~page_words:16 64 in
        ramp src ~base:0 16;
        ramp dst ~base:16 48;
        (* source page 0 is live, page 1 was never written *)
        Memory.copy_words ~src ~src_base:8 ~dst ~dst_base:20 ~count:16;
        let got = Memory.read_strided dst ~base:20 ~stride:1 ~count:16 in
        check_bool "live half" true
          (Array.sub got 0 8 = Array.init 8 (fun i -> float_of_int (8 + i)));
        check_bool "zeroed half" true (Array.sub got 8 8 = Array.make 8 0.0);
        let fresh = Memory.make_store ~page_words:16 64 in
        Memory.copy_words ~src:(Memory.make_store ~page_words:16 64) ~src_base:0 ~dst:fresh
          ~dst_base:30 ~count:4;
        check_int "destination pages materialised" 2 (Memory.touched_pages fresh));
    case "destination parity marks are scrubbed, source marks stay" (fun () ->
        let src = Memory.make_store ~page_words:16 64 in
        let dst = Memory.make_store ~page_words:16 64 in
        ramp src ~base:0 64;
        ramp dst ~base:0 64;
        ignore (Memory.corrupt src 3);
        ignore (Memory.corrupt dst 33);
        ignore (Memory.corrupt dst 50);
        Memory.copy_words ~src ~src_base:0 ~dst ~dst_base:30 ~count:8;
        check_bool "the copied-over mark is gone" true (Memory.parity_errors dst = [ 50 ]);
        check_bool "the source keeps its mark" true (Memory.parity_errors src = [ 3 ]));
    case "an out-of-range copy raises Invalid_argument" (fun () ->
        let a = Memory.make_store ~page_words:16 64 in
        let b = Memory.make_store ~page_words:16 32 in
        let raises name ~src ~src_base ~dst ~dst_base ~count =
          check_bool name true
            (match Memory.copy_words ~src ~src_base ~dst ~dst_base ~count with
            | () -> false
            | exception Invalid_argument _ -> true)
        in
        raises "source end" ~src:a ~src_base:60 ~dst:b ~dst_base:0 ~count:8;
        raises "destination end" ~src:a ~src_base:0 ~dst:b ~dst_base:30 ~count:8;
        raises "negative base" ~src:a ~src_base:(-1) ~dst:b ~dst_base:0 ~count:2;
        raises "negative count" ~src:a ~src_base:0 ~dst:b ~dst_base:0 ~count:(-1);
        raises "overlap in one store" ~src:a ~src_base:0 ~dst:a ~dst_base:4 ~count:8;
        check_int "nothing materialised" 0 (Memory.touched_pages b));
    case "a same-store copy between disjoint ranges" (fun () ->
        let st = Memory.make_store ~page_words:16 128 in
        ramp st ~base:0 40;
        Memory.copy_words ~src:st ~src_base:2 ~dst:st ~dst_base:70 ~count:30;
        check_bool "copied" true
          (Memory.read_strided st ~base:70 ~stride:1 ~count:30
          = Array.init 30 (fun i -> float_of_int (2 + i)));
        check_bool "source intact" true
          (Memory.read_strided st ~base:0 ~stride:1 ~count:40
          = Array.init 40 float_of_int));
  ]

let suite = suite @ [ ("arch:copy-words", copy_words_tests) ]

(* appended: the page table, an array indexed by page number holding the
   empty page where no write has touched one *)
let page_table_tests =
  [
    case "a sparse high page grows the table to it and no further" (fun () ->
        let st = Memory.make_store ~page_words:16 (16 * 1000) in
        check_int "an empty table" 0 (Array.length st.Memory.pages);
        Memory.write st ((16 * 700) + 5) 4.5;
        check_int "one page" 1 (Memory.touched_pages st);
        check_bool "the table reaches the page" true (Array.length st.Memory.pages > 700);
        check_float "reads back" 4.5 (Memory.read st ((16 * 700) + 5));
        check_float "the rest of its page reads zero" 0.0 (Memory.read st (16 * 700));
        check_float "a lower untouched page reads zero" 0.0 (Memory.read st 3);
        check_bool "below it, every entry is the empty page" true
          (Array.for_all (fun p -> p == Memory.no_page) (Array.sub st.Memory.pages 0 700));
        (* the last page: the table never outgrows the plane *)
        Memory.write st ((16 * 1000) - 1) 1.0;
        check_int "the plane's page count bounds the table" 1000 (Array.length st.Memory.pages);
        check_int "two pages" 2 (Memory.touched_pages st);
        check_int "touched words" 32 (Memory.touched_words st);
        check_bool "a bulk read across untouched and touched pages" true
          (Memory.read_strided st ~base:((16 * 700) - 2) ~stride:1 ~count:10
          = [| 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 4.5; 0.0; 0.0 |]);
        check_bool "a strided read past the table's end" true
          (Memory.read_strided st ~base:5 ~stride:(16 * 350) ~count:3 = [| 0.0; 0.0; 4.5 |]));
    case "clear leaves every page untouched" (fun () ->
        let st = Memory.make_store ~page_words:16 256 in
        Memory.write_strided st ~base:10 ~stride:1 (Array.make 40 2.0);
        ignore (Memory.corrupt st 12);
        check_int "four pages" 4 (Memory.touched_pages st);
        Memory.clear st;
        check_int "no page" 0 (Memory.touched_pages st);
        check_bool "no parity mark" true (Memory.parity_errors st = []);
        check_bool "zeros" true
          (Memory.read_strided st ~base:0 ~stride:1 ~count:64 = Array.make 64 0.0);
        check_bool "read_window hands out the empty page" true
          (Memory.read_window st ~base:16 ~count:8 == Memory.no_page);
        Memory.write st 200 7.0;
        check_int "a write after clear materialises one page" 1 (Memory.touched_pages st);
        check_float "and reads back" 7.0 (Memory.read st 200));
    case "snapshot and restore across a clear bring back exactly the pages" (fun () ->
        let st = Memory.make_store ~page_words:16 4096 in
        Memory.write st 3 1.0;
        Memory.write st 2000 2.0;
        ignore (Memory.corrupt st 2000);
        let snap = Memory.snapshot st in
        let before = Memory.read_strided st ~base:0 ~stride:1 ~count:4096 in
        (* the snapshot is a copy: later writes do not reach it *)
        Memory.write st 2001 5.0;
        Memory.clear st;
        Memory.write st 4000 9.0;
        Memory.restore st snap;
        check_int "two pages" 2 (Memory.touched_pages st);
        check_bool "the words" true (Memory.read_strided st ~base:0 ~stride:1 ~count:4096 = before);
        check_bool "the parity mark" true (Memory.parity_errors st = [ 2000 ]);
        check_float "a page written after the snapshot reads zero" 0.0 (Memory.read st 4000);
        (* restoring twice gives two independent copies *)
        Memory.write st 3 8.0;
        Memory.restore st snap;
        check_float "restored again" 1.0 (Memory.read st 3));
    case "copy_words from an untouched page zeroes its span and materialises no source page"
      (fun () ->
        let src = Memory.make_store ~page_words:16 1024 in
        let dst = Memory.make_store ~page_words:16 1024 in
        Memory.write src 900 3.0;
        Memory.write_strided dst ~base:100 ~stride:1 (Array.make 20 6.0);
        Memory.copy_words ~src ~src_base:40 ~dst ~dst_base:104 ~count:8;
        check_bool "zeros over the copied span" true
          (Memory.read_strided dst ~base:100 ~stride:1 ~count:20
          = Array.init 20 (fun i -> if i >= 4 && i < 12 then 0.0 else 6.0));
        check_int "the source keeps its one page" 1 (Memory.touched_pages src));
  ]

let suite = suite @ [ ("arch:page-table", page_table_tests) ]
