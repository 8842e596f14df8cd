// Package a exercises the ltrdirective analyzer: directive placement,
// unknown verbs, and the //ltr:ignore grammar.
package a

//ltr:allocfree
func Hot(x int) int { return x }

/* want `unknown ltr directive "frobnicate"` */ //ltr:frobnicate
func Bad1()                                     {}

/* want `ltr:allocfree directive must be in the doc comment of a function declaration` */ //ltr:allocfree
var X int

/* want `ltr:ignore directive needs at least one analyzer name` */ //ltr:ignore
func Bad2()                                                        {}

/* want `ltr:ignore names unknown analyzer "bogus"` */ //ltr:ignore bogus because reasons
func Bad3()                                            {}

/* want `ltr:ignore directive needs a reason after the analyzer names` */ //ltr:ignore ctxflow
func Bad4()                                                               {}

func Bad5() {
	/* want `ltr:allocfree directive must be in the doc comment of a function declaration` */ //ltr:allocfree
	_ = X
}

/* want `unknown ltr directive "viewmu"` */ //ltr:viewmu
func Bad6()                                 {}

// A valid ignore of ltrdirective itself suppresses the unknown-verb
// diagnostic on the next line.
//
//ltr:ignore ltrdirective deliberately malformed to prove self-suppression
//ltr:frobnozzle
func Ok6() {}
