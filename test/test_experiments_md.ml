(* EXPERIMENTS.md quotes the table of each of the twelve paper
   experiments. This check reruns them (full grids, about 0.3 s), renders
   each table from its rows as markdown, and fails when the document's
   copy, the first table under the experiment's "## EXP-..." heading,
   differs. It prints the table it expects, ready to paste. *)

open Mc_bench

let paper =
  [ Exp_f2f3.t; Exp_f3pram.t; Exp_f4.t; Exp_f5.t; Exp_spectrum.t; Exp_prop.t; Exp_barrier.t;
    Exp_theory.t; Exp_group.t; Exp_async.t; Exp_multicast.t; Exp_prodcon.t ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* the first markdown table after the experiment's heading *)
let quoted doc (e : Exp.t) =
  let rec heading = function
    | [] -> []
    | l :: rest -> if starts_with ("## " ^ e.name ^ " ") l then rest else heading rest
  in
  let rec rows = function l :: rest when starts_with "|" l -> l :: rows rest | _ -> [] in
  let rec table = function
    | [] -> []
    | l :: _ when starts_with "## " l -> []
    | l :: _ as ls when starts_with "|" l -> rows ls
    | _ :: rest -> table rest
  in
  table (heading doc)

let () =
  let doc = In_channel.with_open_text "../EXPERIMENTS.md" In_channel.input_all in
  let doc = String.split_on_char '\n' doc in
  let differs =
    List.filter
      (fun (e : Exp.t) ->
        let out = e.run ~quick:false in
        let want = Render.markdown (List.hd out.Exp.tables) in
        if quoted doc e = want then false
        else begin
          Printf.printf "EXPERIMENTS.md: the %s table differs from its rows; expected:\n%s\n\n"
            e.name (String.concat "\n" want);
          true
        end)
      paper
  in
  if differs <> [] then exit 1
