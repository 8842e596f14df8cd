package directives

import (
	"go/ast"
	"reflect"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		text string
		verb string
		rest string
		ok   bool
	}{
		{"//ltr:allocfree", "allocfree", "", true},
		{"//ltr:ignore ctxflow audit trail", "ignore", "ctxflow audit trail", true},
		{"//ltr:ignore\tpoolreturn reason", "ignore", "poolreturn reason", true},
		{"// ltr:allocfree", "", "", false},
		{"// plain comment", "", "", false},
		{"/*ltr:allocfree*/", "", "", false},
	}
	for _, c := range cases {
		verb, rest, ok := Parse(&ast.Comment{Text: c.text})
		if verb != c.verb || rest != c.rest || ok != c.ok {
			t.Errorf("Parse(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, verb, rest, ok, c.verb, c.rest, c.ok)
		}
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		rest   string
		names  []string
		reason string
	}{
		{"", nil, ""},
		{"ctxflow", []string{"ctxflow"}, ""},
		{"ctxflow audit trail must survive", []string{"ctxflow"}, "audit trail must survive"},
		{"ctxflow,poolreturn shared scratch audited", []string{"ctxflow", "poolreturn"}, "shared scratch audited"},
	}
	for _, c := range cases {
		ig := parseIgnore(c.rest, 0)
		if !reflect.DeepEqual(ig.Names, c.names) || ig.Reason != c.reason {
			t.Errorf("parseIgnore(%q) = (%v, %q), want (%v, %q)",
				c.rest, ig.Names, ig.Reason, c.names, c.reason)
		}
	}
}
