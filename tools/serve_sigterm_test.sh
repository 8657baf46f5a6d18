#!/bin/sh
# Start-up race regression check for qhdl_serve: SIGTERM the server the
# moment its --port-file appears. A supervisor is entitled to signal as soon
# as the port is published, so the server must already have its drain
# handlers installed by then and exit 0 (not die of the default SIGTERM
# action, which reports as status 143).
#
#   sh tools/serve_sigterm_test.sh ./build/tools/qhdl_serve [rounds]
set -u
serve=$1
rounds=${2:-5}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

round=1
while [ "$round" -le "$rounds" ]; do
  port_file="$dir/port.$round"
  "$serve" --port 0 --port-file "$port_file" --quiet >/dev/null &
  pid=$!
  # Busy-wait (shell builtins only, no sleep) so the signal lands as close
  # to the file's appearance as the shell can manage.
  while [ ! -s "$port_file" ]; do
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "round $round: qhdl_serve exited before writing its port file"
      exit 1
    fi
  done
  kill -TERM "$pid"
  wait "$pid"
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "round $round: exit status $status after SIGTERM at port-file" \
         "time (want 0)"
    exit 1
  fi
  round=$((round + 1))
done
echo "qhdl_serve drained cleanly in $rounds rounds"
