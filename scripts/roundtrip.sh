#!/usr/bin/env bash
# Run the README round trip in a fresh directory OUT: every output file,
# plus stdout.txt with all that the commands print. Compare's two wall-time
# columns are cut (from its table and its CSV), so two runs of the same
# code write the same bytes.
#
# Usage: scripts/roundtrip.sh OUT WEEKS TRAIN_WEEKS
#
# The command is $WEEKFIT, by default the installed `weekfit`. From a
# checkout without installing:
#   PYTHONPATH="$PWD/src" WEEKFIT="python -m weekfit.cli" scripts/roundtrip.sh out 4 2
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 OUT WEEKS TRAIN_WEEKS" >&2
  exit 2
fi
out=$1 weeks=$2 train_weeks=$3
read -r -a weekfit <<< "${WEEKFIT:-weekfit}"

mkdir "$out"
cd "$out"
python -c "import weekfit; weekfit.save_model(weekfit.bundled_model('guangzhou'), 'truth.json')"
{
  "${weekfit[@]}" synth    --model truth.json --weeks "$weeks" --noise 200 --seed 1 --out data.csv
  "${weekfit[@]}" fit      --input data.csv --train-weeks "$train_weeks" --out fit.json --trace trace.csv --svg fit.svg
  "${weekfit[@]}" predict  --model fit.json --weeks 1 --out pred.csv --svg pred.svg
  "${weekfit[@]}" evaluate --model fit.json --input data.csv --train-weeks "$train_weeks" --json
  "${weekfit[@]}" evaluate --model fit.json --input data.csv --train-weeks "$train_weeks"
  "${weekfit[@]}" inspect  --model fit.json
  # compare's last two columns are wall times
  "${weekfit[@]}" compare  --input data.csv --train-weeks "$train_weeks" --csv cmp.csv \
    | awk '{ if (NF > 5) NF = 5 } 1'
} > stdout.txt
cut -d, -f1-6 cmp.csv > cmp_accuracy.csv
rm cmp.csv
