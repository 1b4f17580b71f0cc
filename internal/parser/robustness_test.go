package parser

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics feeds pseudo-random token soup to the parser: it
// must return an error or a batch, never panic.
func TestParserNeverPanics(t *testing.T) {
	vocab := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "SUM", "COUNT",
		"MIN", "MAX", "o", "l", "orders", "lineitem", ".", ",", ";", "(",
		")", "*", "=", "<", "<=", ">", ">=", "orderkey", "orderdate",
		"extendedprice", "1100", "3.5", "-7", "--", "\n",
	}
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 3000; i++ {
		n := r.Intn(25)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteString(vocab[r.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %q: %v", src, p)
				}
			}()
			_, _ = ParseBatch(src)
		}()
	}
}

// TestParserNeverPanicsOnRandomBytes goes further: arbitrary characters.
func TestParserNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := r.Intn(40)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(r.Intn(128))
		}
		src := string(b)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %q: %v", src, p)
				}
			}()
			_, _ = ParseBatch(src)
		}()
	}
}

// TestRoundTripThroughValidation parses every statement the CLI help text
// and README advertise.
func TestAdvertisedStatements(t *testing.T) {
	stmts := []string{
		`SELECT o.orderdate, SUM(l.extendedprice)
		 FROM orders o, lineitem l
		 WHERE o.orderkey = l.orderkey AND o.orderdate < 1100
		 GROUP BY o.orderdate`,
		`SELECT * FROM customer c, orders o WHERE c.custkey = o.custkey`,
		`SELECT COUNT(*) FROM lineitem l WHERE l.shipdate >= 2200`,
	}
	for _, s := range stmts {
		if _, err := parseOne(t, s); err != nil {
			t.Errorf("advertised statement rejected: %v\n%s", err, s)
		}
	}
}
