let () =
  Alcotest.run "xut"
    [ ("xml", Test_xml.suite);
      ("xpath", Test_xpath.suite);
      ("automata", Test_automata.suite);
      ("transform", Test_transform.suite);
      ("xquery", Test_xquery.suite);
      ("compose", Test_compose.suite);
      ("properties", Test_properties.suite);
      ("xmark", Test_xmark.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("reader", Test_reader.suite);
      ("steer", Test_steer.suite);
      ("security-view", Test_service.security_view_suite);
      ("service", Test_service.suite);
      ("transport", Test_transport.suite);
    ("update", Test_update.suite);
      ("repair", Test_repair.suite);
      ("schema", Test_schema.suite);
      ("misc", Test_misc.suite) ]
