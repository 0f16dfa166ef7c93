let nodes_visited = Xut_xml.Counter.declare "nodes_visited"
let nodes_copied = Xut_xml.Counter.declare "nodes_copied"
let nodes_shared = Xut_xml.Counter.declare "nodes_shared"
