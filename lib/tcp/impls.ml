type bug = { quirk : Machine.quirk; description : string; bug_type : string }

type t = { name : string; bugs : bug list }

let all =
  [
    { name = "refstack"; bugs = [] };
    {
      name = "fastopend";
      bugs =
        [
          {
            quirk = Machine.Data_before_established;
            description = "Data acknowledged before the handshake completes";
            bug_type = "Input Validation";
          };
        ];
    };
    {
      name = "quietstack";
      bugs =
        [
          {
            quirk = Machine.No_rst_on_bad_segment;
            description = "No RST sent for unacceptable segments";
            bug_type = "Wrong Reply";
          };
        ];
    };
  ]

let find name = List.find_opt (fun impl -> impl.name = name) all

let quirks impl = List.map (fun b -> b.quirk) impl.bugs

let bug_catalog =
  List.concat_map (fun impl -> List.map (fun b -> (impl.name, b)) impl.bugs) all
