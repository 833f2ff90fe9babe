package data

import (
	"errors"
	"strings"
	"testing"
)

func TestParseCSV(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    [][]float64
		wantErr error // nil means success; non-nil matched with errors.Is
	}{
		{
			name: "plain records",
			in:   "1,2,3\n4.5,5.5,6.5\n",
			want: [][]float64{{1, 2, 3}, {4.5, 5.5, 6.5}},
		},
		{
			name: "whitespace trimmed",
			in:   " 1 , 2 \n 3 , 4 \n",
			want: [][]float64{{1, 2}, {3, 4}},
		},
		{
			name:    "empty input",
			in:      "",
			wantErr: ErrNoRecords,
		},
		{
			name:    "NaN cell",
			in:      "1,2\nNaN,4\n",
			wantErr: ErrNonFinite,
		},
		{
			name:    "positive infinity",
			in:      "1,Inf\n",
			wantErr: ErrNonFinite,
		},
		{
			name:    "negative infinity",
			in:      "-Inf,2\n",
			wantErr: ErrNonFinite,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseCSV(strings.NewReader(tc.in))
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("ParseCSV error = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseCSV: %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d records, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if len(got[i]) != len(tc.want[i]) {
					t.Fatalf("record %d: got %d cols, want %d", i, len(got[i]), len(tc.want[i]))
				}
				for j := range got[i] {
					if got[i][j] != tc.want[i][j] {
						t.Fatalf("record %d col %d: got %v, want %v", i, j, got[i][j], tc.want[i][j])
					}
				}
			}
		})
	}

	t.Run("non-numeric cell", func(t *testing.T) {
		if _, err := ParseCSV(strings.NewReader("1,x\n")); err == nil {
			t.Fatal("ParseCSV accepted a non-numeric cell")
		}
	})
}
