type heads = (string * (string * string) list) list

let normalize heads =
  List.sort
    (fun (k1, _) (k2, _) -> String.compare k1 k2)
    (List.map
       (fun (key, branches) ->
         ( key,
           List.sort (fun (b1, _) (b2, _) -> String.compare b1 b2) branches ))
       heads)

let diff ~left_name ~right_name ~left ~right =
  let acc = ref [] in
  let note fmt = Printf.ksprintf (fun s -> acc := s :: !acc) fmt in
  let diff_branches key lb rb =
    let rec go lb rb =
      match (lb, rb) with
      | [], [] -> ()
      | (b, _) :: rest, [] ->
          note "%s/%s: branch only on %s" key b left_name;
          go rest []
      | [], (b, _) :: rest ->
          note "%s/%s: branch only on %s" key b right_name;
          go [] rest
      | (b1, u1) :: r1, (b2, u2) :: r2 ->
          let c = String.compare b1 b2 in
          if c < 0 then begin
            note "%s/%s: branch only on %s" key b1 left_name;
            go r1 rb
          end
          else if c > 0 then begin
            note "%s/%s: branch only on %s" key b2 right_name;
            go lb r2
          end
          else begin
            if not (String.equal u1 u2) then
              note "%s/%s: heads differ (%s: %s, %s: %s)" key b1 left_name u1
                right_name u2;
            go r1 r2
          end
    in
    go lb rb
  in
  let rec go l r =
    match (l, r) with
    | [], [] -> ()
    | (k, _) :: rest, [] ->
        note "%s: key only on %s" k left_name;
        go rest []
    | [], (k, _) :: rest ->
        note "%s: key only on %s" k right_name;
        go [] rest
    | (k1, b1) :: r1, (k2, b2) :: r2 ->
        let c = String.compare k1 k2 in
        if c < 0 then begin
          note "%s: key only on %s" k1 left_name;
          go r1 r
        end
        else if c > 0 then begin
          note "%s: key only on %s" k2 right_name;
          go l r2
        end
        else begin
          diff_branches k1 b1 b2;
          go r1 r2
        end
  in
  go left right;
  List.rev !acc
