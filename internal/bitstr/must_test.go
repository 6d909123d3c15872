package bitstr

import "math/big"

// mustParse and mustFromBig are testutil.MustParse and testutil.MustFromBig
// for this package's own tests, which cannot import testutil: it imports
// bitstr.

func mustParse(text string) String {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

func mustFromBig(v *big.Int, width int) String {
	s, err := FromBig(v, width)
	if err != nil {
		panic(err)
	}
	return s
}
