package avm

import (
	"fmt"
	"strconv"
	"strings"
)

// Instr is one parsed TEAL instruction.
type Instr struct {
	Op   string
	Args []string
	// Line is the 1-based source line, for error messages.
	Line int
	// Cost is the opcode's budget cost, precomputed at parse time so the
	// interpreter loop skips the cost-table lookup. Zero means "not
	// precomputed" and the interpreter falls back to the table.
	Cost uint64
}

// Program is a parsed TEAL program ready for execution.
type Program struct {
	Source string
	Instrs []Instr
	Labels map[string]int // label -> instruction index
}

// Parse assembles TEAL-like source text. Grammar: one instruction per line;
// `//` comments (outside string literals); `name:` defines a label; string
// immediates use Go-style double quotes.
func Parse(src string) (*Program, error) {
	p := &Program{Source: src, Labels: make(map[string]int)}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
			label := strings.TrimSuffix(line, ":")
			if _, dup := p.Labels[label]; dup {
				return nil, fmt.Errorf("avm: line %d: duplicate label %q", lineNo+1, label)
			}
			p.Labels[label] = len(p.Instrs)
			continue
		}
		fields, err := tokenize(line)
		if err != nil {
			return nil, fmt.Errorf("avm: line %d: %w", lineNo+1, err)
		}
		p.Instrs = append(p.Instrs, Instr{Op: fields[0], Args: fields[1:], Line: lineNo + 1, Cost: instrCostArgs(fields[0], fields[1:])})
	}
	return p, nil
}

// stripComment cuts a `//` comment off a line; a `//` inside a
// double-quoted string is part of the string.
func stripComment(line string) string {
	quoted := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++ // the escaped byte cannot end the string
		case c == '"':
			quoted = !quoted
		case !quoted && strings.HasPrefix(line[i:], "//"):
			return line[:i]
		}
	}
	return line
}

// tokenize splits an instruction line, keeping double-quoted strings (with
// escapes) as single tokens.
func tokenize(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string")
			}
			tok, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("bad string literal: %w", err)
			}
			out = append(out, "\x00"+tok) // NUL prefix marks "already unquoted string"
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty instruction")
	}
	return out, nil
}

// argString decodes a token that may be a quoted string (NUL-prefixed by the
// tokenizer) or a bare word.
func argString(tok string) string {
	if strings.HasPrefix(tok, "\x00") {
		return tok[1:]
	}
	return tok
}

// argUint parses a numeric immediate.
func argUint(tok string) (uint64, error) {
	return strconv.ParseUint(argString(tok), 10, 64)
}
