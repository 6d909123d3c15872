// Command casim runs one Convex Agreement instance on the synchronous
// network simulator and reports the outcome and the paper's cost measures
// (BITS and ROUNDS).
//
// Examples:
//
//	casim -inputs 10,12,11,13
//	casim -n 7 -protocol optimal -random-bits 4096 -corrupt 2:ghost:99999,5:equivocate
//	casim -protocol highcost -inputs 5,5,5,9 -breakdown
//	casim -vector "1,2;3,4;2,3;4,5"     # multidimensional (AgreeVector)
package main

import (
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"sort"
	"strings"

	ca "convexagreement"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n          = flag.Int("n", 0, "number of parties (default: number of inputs, or 4)")
		t          = flag.Int("t", 0, "corruption budget (default ⌊(n−1)/3⌋)")
		protoName  = flag.String("protocol", string(ca.ProtoOptimal), "protocol: optimal | optimal-nat | fixed-length | fixed-length-blocks | highcost | broadcast")
		width      = flag.Int("width", 0, "public input bit width (fixed-length protocols)")
		inputsFlag = flag.String("inputs", "", "comma-separated integer inputs, e.g. 10,12,-3")
		vectorFlag = flag.String("vector", "", "semicolon-separated vector inputs, e.g. 1,2;3,4;5,6 (runs AgreeVector)")
		randomBits = flag.Int("random-bits", 0, "draw uniform random inputs of this many bits instead of -inputs")
		corrupt    = flag.String("corrupt", "", "corruptions, e.g. 2:ghost:1000000,5:silent")
		seed       = flag.Int64("seed", 1, "randomness seed for inputs and adversaries")
		breakdown  = flag.Bool("breakdown", false, "print per-label breakdown of honest bits and rounds")
		timeline   = flag.Bool("timeline", false, "print per-round traffic timeline")
	)
	flag.Parse()

	opts := ca.Options{
		T:        *t,
		Protocol: ca.Protocol(*protoName),
		Width:    *width,
		Seed:     *seed,
		Timeline: *timeline,
	}

	corruptions, err := parseCorruptions(*corrupt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	opts.Corruptions = corruptions

	if *vectorFlag != "" {
		return runVectorMode(*vectorFlag, opts)
	}

	inputs, err := buildInputs(*inputsFlag, *randomBits, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	res, err := ca.Agree(inputs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		return 1
	}

	var honest []*big.Int
	for i, v := range inputs {
		if _, bad := corruptions[i]; !bad {
			honest = append(honest, v)
		}
	}
	lo, hi, _ := ca.Hull(honest)
	fmt.Printf("protocol        %s\n", opts.Protocol)
	fmt.Printf("parties         n=%d, corrupted=%d\n", len(inputs), len(corruptions))
	fmt.Printf("output          %v\n", res.Output)
	fmt.Printf("honest hull     [%v, %v]  (output inside: %v)\n", lo, hi, ca.InHull(res.Output, honest))
	fmt.Printf("rounds          %d\n", res.Rounds)
	fmt.Printf("honest bits     %d\n", res.HonestBits)
	fmt.Printf("corrupt bits    %d\n", res.CorruptBits)
	fmt.Printf("messages        %d\n", res.Messages)
	if *timeline {
		fmt.Println("round timeline (honest bits per round; # ≈ relative volume):")
		var peak int64 = 1
		for _, rs := range res.Timeline {
			if rs.HonestBits > peak {
				peak = rs.HonestBits
			}
		}
		for _, rs := range res.Timeline {
			bar := strings.Repeat("#", int(rs.HonestBits*40/peak))
			fmt.Printf("  %5d  %10d  %s\n", rs.Round, rs.HonestBits, bar)
		}
	}
	if *breakdown {
		type row struct {
			label  string
			bits   int64
			rounds int
		}
		rows := make([]row, 0, len(res.BitsByLabel))
		for label, bits := range res.BitsByLabel {
			rows = append(rows, row{label, bits, res.RoundsByLabel[label]})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].bits != rows[j].bits {
				return rows[i].bits > rows[j].bits
			}
			return rows[i].label < rows[j].label
		})
		fmt.Println("label breakdown (honest bits, rounds):")
		for _, r := range rows {
			fmt.Printf("  %-64s %12d %6d\n", r.label, r.bits, r.rounds)
		}
	}
	return 0
}

func buildInputs(list string, randomBits, n int, seed int64) ([]*big.Int, error) {
	if list != "" {
		parts := strings.Split(list, ",")
		inputs := make([]*big.Int, len(parts))
		for i, p := range parts {
			v, ok := new(big.Int).SetString(strings.TrimSpace(p), 10)
			if !ok {
				return nil, fmt.Errorf("casim: invalid input %q", p)
			}
			inputs[i] = v
		}
		if n != 0 && n != len(inputs) {
			return nil, fmt.Errorf("casim: %d inputs but -n %d", len(inputs), n)
		}
		return inputs, nil
	}
	if n == 0 {
		n = 4
	}
	if randomBits <= 0 {
		randomBits = 32
	}
	rng := rand.New(rand.NewSource(seed))
	bound := new(big.Int).Lsh(big.NewInt(1), uint(randomBits))
	inputs := make([]*big.Int, n)
	for i := range inputs {
		inputs[i] = new(big.Int).Rand(rng, bound)
	}
	return inputs, nil
}

func parseCorruptions(spec string) (map[int]ca.Corruption, error) {
	out := map[int]ca.Corruption{}
	if spec == "" {
		return out, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(entry), ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("casim: corruption %q needs party:kind[:input]", entry)
		}
		var idx int
		if _, err := fmt.Sscanf(fields[0], "%d", &idx); err != nil {
			return nil, fmt.Errorf("casim: corruption index %q: %v", fields[0], err)
		}
		corr := ca.Corruption{Kind: ca.AdversaryKind(fields[1])}
		if len(fields) == 3 {
			v, ok := new(big.Int).SetString(fields[2], 10)
			if !ok {
				return nil, fmt.Errorf("casim: ghost input %q", fields[2])
			}
			corr.Input = v
		}
		out[idx] = corr
	}
	return out, nil
}

// runVectorMode parses "1,2;3,4;…" and runs AgreeVector.
func runVectorMode(spec string, opts ca.Options) int {
	rows := strings.Split(spec, ";")
	inputs := make([][]*big.Int, len(rows))
	for i, row := range rows {
		vec, err := buildInputs(row, 0, 0, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		inputs[i] = vec
	}
	res, err := ca.AgreeVector(inputs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		return 1
	}
	fmt.Printf("protocol        vector (%d coordinates, coordinate-wise Π_Z)\n", len(res.Output))
	fmt.Printf("parties         n=%d, corrupted=%d\n", len(inputs), len(opts.Corruptions))
	fmt.Printf("output          %v\n", res.Output)
	for c := range res.Output {
		var col []*big.Int
		for i, vec := range inputs {
			if _, bad := opts.Corruptions[i]; !bad {
				col = append(col, vec[c])
			}
		}
		lo, hi, _ := ca.Hull(col)
		fmt.Printf("coordinate %d    honest range [%v, %v], inside: %v\n", c, lo, hi, ca.InHull(res.Output[c], col))
	}
	fmt.Printf("rounds          %d\n", res.Rounds)
	fmt.Printf("honest bits     %d\n", res.HonestBits)
	return 0
}
