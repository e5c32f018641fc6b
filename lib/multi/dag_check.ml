module Check = Insp_mapping.Check

let check dag platform alloc = Check.check_graph (Dag.graph dag) platform alloc
