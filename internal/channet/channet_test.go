package channet_test

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"convexagreement/internal/channet"
	"convexagreement/internal/core"
	"convexagreement/internal/transport"
)

func TestEchoRounds(t *testing.T) {
	const n, rounds = 5, 6
	hub, err := channet.NewHub(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		fns[i] = func(net transport.Net) error {
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(net, "e", []byte{byte(net.ID()), byte(r)}, nil)
				if err != nil {
					return err
				}
				if len(in) != n {
					return fmt.Errorf("round %d: %d messages", r, len(in))
				}
				for j, m := range in {
					if int(m.From) != j || int(m.Payload[0]) != j || int(m.Payload[1]) != r {
						return fmt.Errorf("round %d: bad message %v", r, m)
					}
				}
			}
			return nil
		}
	}
	if err := hub.Run(fns); err != nil {
		t.Fatal(err)
	}
}

func TestPiZOverChannels(t *testing.T) {
	const n, tc = 4, 1
	hub, err := channet.NewHub(n, tc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []*big.Int{big.NewInt(-9), big.NewInt(4), big.NewInt(-2), big.NewInt(7)}
	outputs := make([]*big.Int, n)
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		i := i
		fns[i] = func(net transport.Net) error {
			out, err := core.PiZ(net, "ca", inputs[i], nil)
			if err != nil {
				return err
			}
			outputs[i] = out
			return nil
		}
	}
	if err := hub.Run(fns); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if outputs[i].Cmp(outputs[0]) != 0 {
			t.Fatalf("disagreement: %v vs %v", outputs[i], outputs[0])
		}
	}
	if outputs[0].Cmp(big.NewInt(-9)) < 0 || outputs[0].Cmp(big.NewInt(7)) > 0 {
		t.Fatalf("output %v outside hull", outputs[0])
	}
}

func TestStaggeredLeaves(t *testing.T) {
	// Parties with different round counts must not deadlock the hub.
	const n = 3
	hub, _ := channet.NewHub(n, 0)
	lengths := []int{1, 4, 4}
	fns := make([]func(net transport.Net) error, n)
	for i := 0; i < n; i++ {
		rounds := lengths[i]
		fns[i] = func(net transport.Net) error {
			for r := 0; r < rounds; r++ {
				if _, err := transport.ExchangeAll(net, "e", []byte{1}, nil); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := hub.Run(fns); err != nil {
		t.Fatal(err)
	}
}

func TestCloseReleasesParties(t *testing.T) {
	hub, _ := channet.NewHub(2, 0)
	conn0, _ := hub.Net(0)
	var wg sync.WaitGroup
	var got error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, got = conn0.Exchange(nil) // party 1 never submits
	}()
	hub.Close()
	wg.Wait()
	if !errors.Is(got, channet.ErrClosed) {
		t.Fatalf("err = %v", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := channet.NewHub(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := channet.NewHub(3, 1); err == nil {
		t.Error("3t >= n accepted")
	}
	hub, _ := channet.NewHub(2, 0)
	if _, err := hub.Net(5); err == nil {
		t.Error("out-of-range party accepted")
	}
	if err := hub.Run(nil); err == nil {
		t.Error("wrong function count accepted")
	}
}

func TestExchangeAfterLeave(t *testing.T) {
	hub, _ := channet.NewHub(1, 0)
	conn, _ := hub.Net(0)
	conn.Leave()
	if _, err := conn.Exchange(nil); !errors.Is(err, channet.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}
