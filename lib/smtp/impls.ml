type bug = {
  quirk : Machine.quirk;
  description : string;
  bug_type : string;
  new_bug : bool;
}

type t = { name : string; bugs : bug list }

let all =
  [
    {
      name = "aiosmtpd";
      bugs =
        [
          {
            quirk = Machine.Accept_mail_without_helo;
            description = "Server accepting request without appropriate headers";
            bug_type = "Input Validation";
            new_bug = true;
          };
        ];
    };
    { name = "smtpd"; bugs = [] };
    { name = "opensmtpd"; bugs = [] };
  ]

let find name = List.find_opt (fun impl -> impl.name = name) all

let quirks impl = List.map (fun b -> b.quirk) impl.bugs

let run_session impl commands =
  Machine.run_session ~quirks:(Eywa_quirkset.Quirkset.of_list (quirks impl)) commands

let bug_catalog =
  List.concat_map (fun impl -> List.map (fun b -> (impl.name, b)) impl.bugs) all
