package adversary_test

import (
	"math/big"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/core"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// TestCoalitionAgainstPiZ: a full coordinated coalition of t members must
// not break Agreement or Convex Validity of the main protocol.
func TestCoalitionAgainstPiZ(t *testing.T) {
	n, tc := 10, 3
	coalition := adversary.NewCoalition()
	corrupt := map[int]sim.Behavior{
		1: coalition.Member(),
		4: coalition.Member(),
		8: coalition.Member(),
	}
	inputs := make([]*big.Int, n)
	var honest []*big.Int
	for i := range inputs {
		inputs[i] = big.NewInt(int64(5000 + i*3))
		if _, bad := corrupt[i]; !bad {
			honest = append(honest, inputs[i])
		}
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (*big.Int, error) {
			return core.PiZ(env, "ca", inputs[env.ID()], nil)
		})
	if err != nil {
		t.Fatal(err)
	}
	out, err := testutil.AgreeBig(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.HullCheck(out, honest); err != nil {
		t.Fatal(err)
	}
}

// TestCoalitionMembersCoordinate: all members relay the same payload pair
// in the same round (that is the point of the coalition).
func TestCoalitionMembersCoordinate(t *testing.T) {
	n := 5
	coalition := adversary.NewCoalition()
	corrupt := map[int]sim.Behavior{3: coalition.Member(), 4: coalition.Member()}
	perRound := map[int]map[sim.PartyID]string{} // round → member → payload to party 0
	res, err := testutil.Run(sim.Config{N: n, T: 1}, corrupt,
		func(env *sim.Env) (int, error) {
			for r := 0; r < 4; r++ {
				in, err := transport.ExchangeAll(env, "h", []byte{byte(env.ID()), byte(r)}, nil)
				if err != nil {
					return 0, err
				}
				if env.ID() == 0 {
					m := map[sim.PartyID]string{}
					for _, msg := range in {
						if msg.From >= 3 {
							m[msg.From] = string(msg.Payload)
						}
					}
					perRound[r] = m
				}
			}
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	coordinated := 0
	for r := 1; r < 4; r++ { // round 0 has no spied traffic yet
		m := perRound[r]
		if len(m) == 2 && m[3] == m[4] && m[3] != "" {
			coordinated++
		}
	}
	if coordinated == 0 {
		t.Fatalf("members never coordinated: %v", perRound)
	}
}
