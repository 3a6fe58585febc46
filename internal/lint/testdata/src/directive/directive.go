// Package directive is a herlint fixture for the directive validator:
// herlint: control comments must use a known verb, an explicit analyzer
// list, and a dash-separated written reason.
package directive

func ignores() int {
	x := 1 //herlint:ignore // want `bare herlint:ignore suppresses nothing`
	y := 2 //herlint:ignore nosuch — covered elsewhere // want `herlint:ignore names unknown analyzer(s) nosuch`
	z := 3 //herlint:ignore floateq missing the dash // want `herlint:ignore requires a dash-separated written reason`
	w := 4 //herlint:ignore floateq — a proper reason
	v := 5 //herlint:ignore lockguard,mapiter — multiple analyzers with a reason
	return x + y + z + w + v
}

//herlint:typo on the verb // want `unknown herlint directive "typo"`
func unknownVerb() {}
