package avm

// AcceptedForms lists every form Parse accepts: each mnemonic, and a
// field-taking mnemonic once per field ("txn Sender").
func AcceptedForms() []string {
	var out []string
	for op, spec := range ops {
		if spec.imm != immField {
			out = append(out, op)
			continue
		}
		for field := range fields[op] {
			out = append(out, op+" "+field)
		}
	}
	return out
}
