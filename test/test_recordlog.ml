(* The record log's hex codec, shared by the checkpoint journal, the cache
   journal and the serve pass-entry codec: its output must stay
   byte-identical to the "%02x" encoding those files were written with,
   decoding must invert it, and malformed input must decode to [None]
   rather than raise. *)

module Recordlog = Spf_harness.Recordlog

let reference_hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let bytes_arb = QCheck.(string_gen QCheck.Gen.char)

let prop_matches_printf =
  QCheck.Test.make ~name:"to_hex equals the %02x reference" ~count:500
    bytes_arb (fun s -> Recordlog.to_hex s = reference_hex s)

let prop_round_trip =
  QCheck.Test.make ~name:"of_hex inverts to_hex" ~count:500 bytes_arb
    (fun s -> Recordlog.of_hex (Recordlog.to_hex s) = Some s)

(* Short strings of mostly hex digits, with stray characters drawn
   mostly from the neighbours of the digit ranges, so well-formed input,
   odd lengths and a single bad digit are all common. *)
let near_hex_arb =
  QCheck.(
    string_gen_of_size (Gen.int_bound 8)
      (Gen.frequency
         [
           (8, Gen.oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF")));
           (1, Gen.oneofl (List.of_seq (String.to_seq "/:@`gGxX_ -")));
           (1, Gen.char);
         ]))

let prop_rejects_malformed =
  QCheck.Test.make ~name:"of_hex: None on odd length or a non-hex digit"
    ~count:1000 near_hex_arb (fun s ->
      let well_formed =
        String.length s mod 2 = 0
        && String.for_all
             (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
             s
      in
      match Recordlog.of_hex s with
      | Some d ->
          well_formed && String.lowercase_ascii s = Recordlog.to_hex d
      | None -> not well_formed
      | exception _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matches_printf; prop_round_trip; prop_rejects_malformed ]
